module T = Sevsnp.Types
module C = Sevsnp.Cycles
module P = Sevsnp.Platform

type stats = { mutable modules_loaded : int; mutable modules_unloaded : int; mutable rejected : int }

type t = {
  mon : Monitor.t;
  vendor_public : Veil_crypto.Bignum.t;
  symbols : (string * int) list;  (** protected copy, taken at install time *)
  stats : stats;
  mutable activated : bool;
  mutable module_text : T.gpfn list;
}

let stats t = t.stats
let active t = t.activated
let protected_module_frames t = t.module_text

(* Kernel text: readable + supervisor-executable, never writable.
   Kernel data: read/write, never supervisor-executable. *)
let text_perms =
  { Sevsnp.Perm.read = true; write = false; user_exec = false; super_exec = true }

let data_perms =
  { Sevsnp.Perm.read = true; write = true; user_exec = true; super_exec = false }

let activate t vcpu =
  let l = Monitor.layout t.mon in
  let sweep (r : Layout.region) perms =
    for gpfn = r.Layout.lo to r.Layout.hi - 1 do
      match Monitor.mon_rmpadjust t.mon vcpu ~gpfn ~target:Privdom.Unt ~perms with
      | Ok () -> ()
      | Error e -> failwith ("VeilS-KCI sweep: " ^ e)
    done
  in
  sweep l.Layout.kernel_text text_perms;
  sweep l.Layout.kernel_data data_perms;
  t.activated <- true

let install_module t vcpu (image : Guest_kernel.Kmodule.image) text_gpfns data_gpfns =
  let platform = Monitor.platform t.mon in
  Sevsnp.Vcpu.charge vcpu C.Crypto (C.hash_cost (Guest_kernel.Kmodule.binary_size image));
  if not (Guest_kernel.Kmodule.verify ~vendor_public:t.vendor_public image) then begin
    t.stats.rejected <- t.stats.rejected + 1;
    Idcb.Resp_error "VeilS-KCI: module signature verification failed"
  end
  else begin
    (* Relocate against the *protected* symbol table — the untrusted
       kernel's table may have been corrupted (TOCTOU, §6.1). *)
    let text = Bytes.copy image.Guest_kernel.Kmodule.text in
    let ok =
      List.for_all
        (fun (off, sym) ->
          Sevsnp.Vcpu.charge vcpu C.Monitor 200;
          match List.assoc_opt sym t.symbols with
          | None -> false
          | Some addr ->
              Bytes.set_int64_le text off (Int64.of_int addr);
              true)
        image.Guest_kernel.Kmodule.relocs
    in
    if not ok then begin
      t.stats.rejected <- t.stats.rejected + 1;
      Idcb.Resp_error "VeilS-KCI: relocation against unknown symbol"
    end
    else begin
      (* Copy text and data into the OS-provided frames. *)
      let write_span frames data =
        List.iteri
          (fun i frame ->
            let off = i * T.page_size in
            let n = min T.page_size (Bytes.length data - off) in
            if n > 0 then begin
              Sevsnp.Vcpu.charge vcpu C.Copy (C.copy_cost n);
              P.write platform vcpu (T.gpa_of_gpfn frame) (Bytes.sub data off n)
            end)
          frames
      in
      write_span text_gpfns text;
      write_span data_gpfns image.Guest_kernel.Kmodule.data;
      (* RMP permission update requires a TLB shootdown + RMP-coherence
         flush across VCPUs before the text may execute *)
      Sevsnp.Vcpu.charge vcpu C.Monitor (15_000 + (2_000 * List.length text_gpfns));
      (* Write-protect the prepared text (read + supervisor exec). *)
      List.iter
        (fun gpfn ->
          match Monitor.mon_rmpadjust t.mon vcpu ~gpfn ~target:Privdom.Unt ~perms:text_perms with
          | Ok () -> ()
          | Error e -> failwith ("VeilS-KCI text protect: " ^ e))
        text_gpfns;
      t.module_text <- text_gpfns @ t.module_text;
      Monitor.add_protected_frames t.mon ~owner:Privdom.Sec text_gpfns;
      t.stats.modules_loaded <- t.stats.modules_loaded + 1;
      Idcb.Resp_loaded
        {
          Guest_kernel.Kmodule.module_image = image;
          text_gpfns;
          data_gpfns;
          load_address = T.gpa_of_gpfn (List.hd text_gpfns);
          installed = true;
        }
    end
  end

let uninstall_module t vcpu (loaded : Guest_kernel.Kmodule.loaded) =
  Sevsnp.Vcpu.charge vcpu C.Monitor (15_000 + (2_000 * List.length loaded.Guest_kernel.Kmodule.text_gpfns));
  (* Return the text frames to the OS: writable again, no exec needed. *)
  List.iter
    (fun gpfn ->
      match Monitor.mon_rmpadjust t.mon vcpu ~gpfn ~target:Privdom.Unt ~perms:Sevsnp.Perm.all with
      | Ok () -> ()
      | Error e -> failwith ("VeilS-KCI unprotect: " ^ e))
    loaded.Guest_kernel.Kmodule.text_gpfns;
  Monitor.remove_protected_frames t.mon loaded.Guest_kernel.Kmodule.text_gpfns;
  t.module_text <-
    List.filter (fun f -> not (List.mem f loaded.Guest_kernel.Kmodule.text_gpfns)) t.module_text;
  t.stats.modules_unloaded <- t.stats.modules_unloaded + 1;
  Idcb.Resp_ok

let handler t _mon vcpu (req : Idcb.request) =
  match req with
  | Idcb.R_module_load { image; text_gpfns; data_gpfns } ->
      Some (install_module t vcpu image text_gpfns data_gpfns)
  | Idcb.R_module_unload loaded -> Some (uninstall_module t vcpu loaded)
  | _ -> None

let install mon ~vendor_public ~symbols =
  let t =
    {
      mon;
      vendor_public;
      symbols;
      stats = { modules_loaded = 0; modules_unloaded = 0; rejected = 0 };
      activated = false;
      module_text = [];
    }
  in
  Monitor.register_service mon ~name:"veils-kci" ~target:Privdom.Sec (fun m vcpu req ->
      handler t m vcpu req);
  t
