module C = Sevsnp.Cycles
module K = Guest_kernel.Ktypes

type backing =
  | Mem of Buffer.t  (** in-enclave containerized file *)
  | Host of int  (** fd on the host kernel, via redirection *)

type file = {
  path : string;
  mutable backing : backing;
  mode : [ `Read | `Write | `Append ];
  wbuf : Buffer.t;  (** write-behind buffer *)
  mutable rbuf : bytes;  (** read-ahead buffer *)
  mutable rpos : int;  (** cursor into [rbuf] *)
  mutable fpos : int;  (** stream position for host reads *)
  mutable closed : bool;
}

type t = {
  rt : Runtime.t;
  stdio_buffer : int;
  mutable mounts : string list;
  memfs : (string, Buffer.t) Hashtbl.t;
  mutable saved : int;
}

let create ?(stdio_buffer = 8192) rt =
  { rt; stdio_buffer; mounts = []; memfs = Hashtbl.create 16; saved = 0 }

let mount_memfs t ~prefix = t.mounts <- prefix :: t.mounts

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let is_memfs_path t path = List.exists (fun p -> starts_with ~prefix:p path) t.mounts

let ocalls_saved t = t.saved

(* --- open/close --- *)

let fopen t path ~mode =
  if is_memfs_path t path then begin
    t.saved <- t.saved + 1 (* the open itself never leaves the enclave *);
    Runtime.compute t.rt 600;
    let buf =
      match (Hashtbl.find_opt t.memfs path, mode) with
      | Some b, `Append -> b
      | Some b, `Read -> b
      | Some _, `Write ->
          let b = Buffer.create 256 in
          Hashtbl.replace t.memfs path b;
          b
      | None, `Read -> Buffer.create 0 |> fun b -> Hashtbl.replace t.memfs path b; b
      | None, (`Write | `Append) ->
          let b = Buffer.create 256 in
          Hashtbl.replace t.memfs path b;
          b
    in
    Ok
      {
        path;
        backing = Mem buf;
        mode;
        wbuf = Buffer.create t.stdio_buffer;
        rbuf = Bytes.empty;
        rpos = 0;
        fpos = 0;
        closed = false;
      }
  end
  else begin
    let flags =
      match mode with
      | `Read -> Libc.o_rdonly
      | `Write -> Libc.o_creat lor Libc.o_wronly lor Libc.o_trunc
      | `Append -> Libc.o_creat lor Libc.o_wronly lor Libc.o_append
    in
    match Libc.open_ t.rt path ~flags ~mode:0o644 with
    | Ok fd ->
        Ok
          {
            path;
            backing = Host fd;
            mode;
            wbuf = Buffer.create t.stdio_buffer;
            rbuf = Bytes.empty;
            rpos = 0;
            fpos = 0;
            closed = false;
          }
    | Error e -> Error (K.errno_to_string e)
  end

let flush_wbuf t f =
  if Buffer.length f.wbuf = 0 then Ok ()
  else begin
    let data = Buffer.to_bytes f.wbuf in
    Buffer.clear f.wbuf;
    match f.backing with
    | Mem b ->
        Runtime.compute t.rt (C.copy_cost (Bytes.length data));
        Buffer.add_bytes b data;
        Ok ()
    | Host fd -> (
        match Libc.write t.rt fd data with
        | Ok _ -> Ok ()
        | Error e -> Error (K.errno_to_string e))
  end

let fwrite t f data =
  if f.closed then Error "stream closed"
  else if f.mode = `Read then Error "stream opened read-only"
  else begin
    Runtime.compute t.rt (120 + C.copy_cost (Bytes.length data));
    Buffer.add_bytes f.wbuf data;
    (* each buffered write that does not flush saves one redirection *)
    if Buffer.length f.wbuf < t.stdio_buffer then begin
      t.saved <- t.saved + (match f.backing with Host _ -> 1 | Mem _ -> 1);
      Ok (Bytes.length data)
    end
    else
      match flush_wbuf t f with Ok () -> Ok (Bytes.length data) | Error _ as e -> Result.bind e (fun _ -> assert false)
  end

let fill_rbuf t f =
  match f.backing with
  | Mem b ->
      (* Blit just the window we need — copying the whole file per
         refill made every read O(file size). *)
      let n = min t.stdio_buffer (Buffer.length b - f.fpos) in
      if n <= 0 then Bytes.empty
      else begin
        Runtime.compute t.rt (C.copy_cost n);
        t.saved <- t.saved + 1;
        let out = Bytes.create n in
        Buffer.blit b f.fpos out 0 n;
        out
      end
  | Host fd -> (
      match Libc.pread t.rt fd ~len:t.stdio_buffer ~pos:f.fpos with
      | Ok b -> b
      | Error _ -> Bytes.empty)

let fread t f n =
  if f.closed then Error "stream closed"
  else if f.mode <> `Read then Error "stream not opened for reading"
  else begin
    let out = Buffer.create n in
    let rec go () =
      if Buffer.length out >= n then ()
      else begin
        if f.rpos >= Bytes.length f.rbuf then begin
          f.rbuf <- fill_rbuf t f;
          f.rpos <- 0;
          f.fpos <- f.fpos + Bytes.length f.rbuf
        end;
        if Bytes.length f.rbuf = 0 then () (* EOF *)
        else begin
          let take = min (n - Buffer.length out) (Bytes.length f.rbuf - f.rpos) in
          Buffer.add_subbytes out f.rbuf f.rpos take;
          f.rpos <- f.rpos + take;
          if take > 0 then begin
            t.saved <- t.saved + 1 (* served from the read-ahead buffer *);
            go ()
          end
        end
      end
    in
    go ();
    Runtime.compute t.rt (60 + C.copy_cost (Buffer.length out));
    Ok (Buffer.to_bytes out)
  end

let fflush t f = flush_wbuf t f

let fclose t f =
  if f.closed then Error "stream already closed"
  else begin
    match flush_wbuf t f with
    | Error _ as e -> e
    | Ok () ->
        f.closed <- true;
        (match f.backing with
        | Mem _ -> Ok ()
        | Host fd -> (
            match Libc.close t.rt fd with Ok () -> Ok () | Error e -> Error (K.errno_to_string e)))
  end

let unlink t path =
  if is_memfs_path t path then begin
    t.saved <- t.saved + 1;
    if Hashtbl.mem t.memfs path then begin
      Hashtbl.remove t.memfs path;
      Ok ()
    end
    else Error "no such memfs file"
  end
  else match Libc.unlink t.rt path with Ok () -> Ok () | Error e -> Error (K.errno_to_string e)

let exists t path =
  if is_memfs_path t path then Hashtbl.mem t.memfs path
  else
    match Runtime.ocall t.rt Guest_kernel.Sysno.Access [ K.Str path ] with
    | K.RInt 0 -> true
    | _ -> false

let file_size t path =
  if is_memfs_path t path then Option.map Buffer.length (Hashtbl.find_opt t.memfs path)
  else
    match Runtime.ocall t.rt Guest_kernel.Sysno.Stat [ K.Str path ] with
    | K.RStat st -> Some st.K.st_size
    | _ -> None
