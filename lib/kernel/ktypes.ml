type errno =
  | ENOENT
  | EBADF
  | EACCES
  | EEXIST
  | ENOTDIR
  | EISDIR
  | EINVAL
  | ENFILE
  | ENOSPC
  | ESPIPE
  | EPIPE
  | EAGAIN
  | ENOTCONN
  | EADDRINUSE
  | ECONNREFUSED
  | ENOMEM
  | ENOSYS
  | EPERM
  | EFAULT

let errno_to_string = function
  | ENOENT -> "ENOENT"
  | EBADF -> "EBADF"
  | EACCES -> "EACCES"
  | EEXIST -> "EEXIST"
  | ENOTDIR -> "ENOTDIR"
  | EISDIR -> "EISDIR"
  | EINVAL -> "EINVAL"
  | ENFILE -> "ENFILE"
  | ENOSPC -> "ENOSPC"
  | ESPIPE -> "ESPIPE"
  | EPIPE -> "EPIPE"
  | EAGAIN -> "EAGAIN"
  | ENOTCONN -> "ENOTCONN"
  | EADDRINUSE -> "EADDRINUSE"
  | ECONNREFUSED -> "ECONNREFUSED"
  | ENOMEM -> "ENOMEM"
  | ENOSYS -> "ENOSYS"
  | EPERM -> "EPERM"
  | EFAULT -> "EFAULT"

let errno_code = function
  | EPERM -> 1
  | ENOENT -> 2
  | EBADF -> 9
  | EAGAIN -> 11
  | ENOMEM -> 12
  | EACCES -> 13
  | EFAULT -> 14
  | EEXIST -> 17
  | ENOTDIR -> 20
  | EISDIR -> 21
  | EINVAL -> 22
  | ENFILE -> 23
  | ESPIPE -> 29
  | EPIPE -> 32
  | EADDRINUSE -> 98
  | ECONNREFUSED -> 111
  | ENOTCONN -> 107
  | ENOSPC -> 28
  | ENOSYS -> 38

type open_flag = O_RDONLY | O_WRONLY | O_RDWR | O_CREAT | O_TRUNC | O_APPEND | O_EXCL

type prot = { pr : bool; pw : bool; px : bool }

let prot_none = { pr = false; pw = false; px = false }
let prot_rw = { pr = true; pw = true; px = false }
let prot_r = { pr = true; pw = false; px = false }
let prot_rx = { pr = true; pw = false; px = true }

type whence = SEEK_SET | SEEK_CUR | SEEK_END

type stat = { st_size : int; st_is_dir : bool; st_mode : int; st_ino : int }

type arg = Int of int | Str of string | Buf of bytes | Ptr of int

type ret = RInt of int | RBuf of bytes | RStat of stat | RErr of errno

let ret_errno = function RErr e -> Some e | _ -> None

let ret_int = function
  | RInt n -> Ok n
  | RErr e -> Error e
  | RBuf _ | RStat _ -> Error EINVAL

(* Buffer writers behind every audit rendering.  They allocate only
   when the buffer grows (or a string needs escaping), and write the
   bytes of Printf's %d, %S and 0x%x exactly. *)

let rec add_nonpositive buf n =
  if n <= -10 then add_nonpositive buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

(* Digits are produced from the non-positive magnitude, so [min_int]
   needs no special case. *)
let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_nonpositive buf n
  end
  else add_nonpositive buf (-n)

(* %x reads the 63-bit two's complement as unsigned: -1 is 7fff...f. *)
let add_hex buf n =
  let shift = ref 60 in
  while !shift > 0 && n lsr !shift = 0 do
    shift := !shift - 4
  done;
  while !shift >= 0 do
    let d = (n lsr !shift) land 0xf in
    Buffer.add_char buf (Char.unsafe_chr (if d < 10 then 48 + d else 87 + d));
    shift := !shift - 4
  done

(* %S: quoted, [String.escaped] inside (which returns a string that
   needs no escaping as is, without allocating). *)
let add_quoted buf s =
  Buffer.add_char buf '"';
  Buffer.add_string buf (String.escaped s);
  Buffer.add_char buf '"'

let add_arg buf = function
  | Int n -> add_int buf n
  | Str s -> add_quoted buf s
  | Buf b ->
      Buffer.add_string buf "<buf:";
      add_int buf (Bytes.length b);
      Buffer.add_char buf '>'
  | Ptr p ->
      Buffer.add_string buf "0x";
      add_hex buf p

let pp_arg fmt a =
  let buf = Buffer.create 16 in
  add_arg buf a;
  Format.pp_print_string fmt (Buffer.contents buf)

let pp_ret fmt = function
  | RInt n -> Format.fprintf fmt "%d" n
  | RBuf b -> Format.fprintf fmt "<buf:%d>" (Bytes.length b)
  | RStat s -> Format.fprintf fmt "<stat:%d>" s.st_size
  | RErr e -> Format.fprintf fmt "-%s" (errno_to_string e)
