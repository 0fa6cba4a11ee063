type record = { seq : int; cycles : int; sys : Sysno.t; pid : int; detail : string }

let rec add_args buf i = function
  | [] -> ()
  | a :: rest ->
      Buffer.add_string buf " a";
      Ktypes.add_int buf i;
      Buffer.add_char buf '=';
      Ktypes.add_arg buf a;
      add_args buf (i + 1) rest

let add_detail buf ~uid ~euid args =
  Buffer.add_string buf "uid=";
  Ktypes.add_int buf uid;
  Buffer.add_string buf " euid=";
  Ktypes.add_int buf euid;
  add_args buf 0 args

let add_line buf r =
  Buffer.add_string buf "type=SYSCALL seq=";
  Ktypes.add_int buf r.seq;
  Buffer.add_string buf " tsc=";
  Ktypes.add_int buf r.cycles;
  Buffer.add_string buf " syscall=";
  Buffer.add_string buf (Sysno.to_string r.sys);
  Buffer.add_char buf '(';
  Ktypes.add_int buf (Sysno.number r.sys);
  Buffer.add_string buf ") pid=";
  Ktypes.add_int buf r.pid;
  Buffer.add_char buf ' ';
  Buffer.add_string buf r.detail

let to_line r =
  let buf = Buffer.create 128 in
  add_line buf r;
  Buffer.contents buf

module Sysset = Set.Make (struct
  type t = Sysno.t

  let compare = Sysno.compare
end)

type t = {
  mutable rules : Sysset.t;
  mutable buffer : record list;  (** newest first *)
  mutable nrecords : int;
  mutable next_seq : int;
  mutable protect_hook : (record -> unit) option;
}

let create () = { rules = Sysset.empty; buffer = []; nrecords = 0; next_seq = 1; protect_hook = None }

let set_rules t rules = t.rules <- Sysset.of_list rules
let clear_rules t = t.rules <- Sysset.empty
let matches t sys = Sysset.mem sys t.rules

let set_protect_hook t h = t.protect_hook <- h

let emit t ~cycles ~sys ~pid ~detail =
  if matches t sys then begin
    let r = { seq = t.next_seq; cycles; sys; pid; detail } in
    t.next_seq <- t.next_seq + 1;
    (* Execute-ahead: the protected copy is taken before the kernel
       proceeds with the event. *)
    (match t.protect_hook with Some h -> h r | None -> ());
    t.buffer <- r :: t.buffer;
    t.nrecords <- t.nrecords + 1
  end

let records t = List.rev t.buffer
let count t = t.nrecords

let tamper t ~seq ~detail =
  let found = ref false in
  t.buffer <-
    List.map
      (fun r ->
        if r.seq = seq then begin
          found := true;
          { r with detail }
        end
        else r)
      t.buffer;
  !found
