type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Fixed of int * float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_escaped buf s =
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when c < ' ' -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Printf.bprintf buf "%g" f
  | Fixed (decimals, f) -> Printf.bprintf buf "%.*f" decimals f
  | String s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
  | List items -> add_seq buf '[' ']' to_buffer items
  | Obj fields ->
      add_seq buf '{' '}'
        (fun buf (k, v) ->
          to_buffer buf (String k);
          Buffer.add_char buf ':';
          to_buffer buf v)
        fields

and add_seq : 'a. Buffer.t -> char -> char -> (Buffer.t -> 'a -> unit) -> 'a list -> unit =
 fun buf op cl add items ->
  Buffer.add_char buf op;
  List.iteri (fun i x -> if i > 0 then Buffer.add_char buf ','; add buf x) items;
  Buffer.add_char buf cl

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* --- parser: recursive descent over the RFC 8259 grammar ---------- *)

exception Fail of int * string

(* Bounds recursion on hostile input such as a megabyte of '['. *)
let max_depth = 512

let parse s =
  let n = String.length s and pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let at c = !pos < n && s.[!pos] = c in
  let skip c = at c && (incr pos; true) in
  let eat c = if not (skip c) then fail (Printf.sprintf "expected '%c'" c) in
  let rec ws () = if skip ' ' || skip '\t' || skip '\n' || skip '\r' then ws () in
  let word w v =
    let len = String.length w in
    if !pos + len <= n && String.sub s !pos len = w then (pos := !pos + len; v)
    else fail "invalid literal"
  in
  let digits () =
    let start = !pos in
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do incr pos done;
    if !pos = start then fail "expected digit"
  in
  let number () =
    let start = !pos in
    ignore (skip '-');
    if not (skip '0') then digits ();
    let frac = skip '.' in
    if frac then digits ();
    let exp = skip 'e' || skip 'E' in
    if exp then (ignore (skip '+' || skip '-'); digits ());
    let lit = String.sub s start (!pos - start) in
    match if frac || exp then None else int_of_string_opt lit with
    | Some i -> Int i
    | None -> Float (float_of_string lit)
  in
  let hex4 () =
    if !pos + 4 > n then fail "short \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> fail "bad hex digit"
      in
      v := (!v * 16) + d;
      incr pos
    done;
    !v
  in
  let str () =
    eat '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= n then fail "unterminated string";
          incr pos;
          (match s.[!pos - 1] with
          | ('"' | '\\' | '/') as e -> Buffer.add_char b e
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              let u = hex4 () in
              if Uchar.is_valid u then Buffer.add_utf_8_uchar b (Uchar.of_int u)
              else fail "surrogate \\u escape"
          | _ -> fail "bad escape");
          go ()
      | c when c < ' ' -> fail "control character in string"
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  (* [items] reads one element; elements are separated by ',' and the
     sequence ends at [close]. *)
  let seq close items =
    ws ();
    if skip close then []
    else
      let rec more acc =
        let acc = items () :: acc in
        ws ();
        if skip ',' then more acc else (eat close; List.rev acc)
      in
      more []
  in
  let rec value depth =
    if depth > max_depth then fail "nesting too deep";
    ws ();
    if !pos >= n then fail "unexpected end of input";
    match s.[!pos] with
    | '{' ->
        incr pos;
        Obj
          (seq '}' (fun () ->
               ws ();
               let k = str () in
               ws ();
               eat ':';
               (k, value (depth + 1))))
    | '[' -> incr pos; List (seq ']' (fun () -> value (depth + 1)))
    | '"' -> String (str ())
    | 't' -> word "true" (Bool true)
    | 'f' -> word "false" (Bool false)
    | 'n' -> word "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "unexpected character"
  in
  match
    let v = value 0 in
    ws ();
    if !pos < n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) -> Error (Printf.sprintf "%s at offset %d" msg at)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let number = function
  | Int i -> Some (float_of_int i)
  | Float f | Fixed (_, f) -> Some f
  | _ -> None
