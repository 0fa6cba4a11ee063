(* Obs.Json: printer layout, parser strictness, print/parse round trip,
   and the committed bench baselines the gate reads. *)

module J = Obs.Json

let q = QCheck_alcotest.to_alcotest

(* Every byte 0x00-0x7f: control characters take the \u00XX path, the
   rest print raw or with a named escape. *)
let ascii = String.init 128 Char.chr

let gen_value =
  let open QCheck.Gen in
  let str = string_size ~gen:(char_range '\000' '\127') (0 -- 12) in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return J.Null;
               map (fun b -> J.Bool b) bool;
               map (fun i -> J.Int i) int;
               map (fun s -> J.String s) str;
             ]
         in
         if n <= 0 then leaf
         else
           frequency
             [
               (3, leaf);
               (1, map (fun l -> J.List l) (list_size (0 -- 4) (self (n / 4))));
               (1, map (fun l -> J.Obj l) (list_size (0 -- 4) (pair str (self (n / 4)))));
             ])

let prop_round_trip =
  QCheck.Test.make ~name:"parse (to_string v) = v" ~count:500
    (QCheck.make ~print:J.to_string gen_value)
    (fun v -> J.parse (J.to_string v) = Ok v)

(* Arbitrary bytes, and bytes from the JSON alphabet so the parser gets
   past its first character: it must answer, never raise. *)
let prop_parse_total =
  let json_ish =
    QCheck.Gen.(
      string_size ~gen:(oneof [ oneofl (List.of_seq (String.to_seq "{}[]\",:-+.eE0123456789tfnrul\\ ")); char ])
        (0 -- 40))
  in
  QCheck.Test.make ~name:"parse never raises" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") json_ish)
    (fun s -> match J.parse s with Ok _ | Error _ -> true)

let test_printer_layout () =
  Alcotest.(check string) "compact, named and \\u escapes, DEL raw, three number formats"
    ({|{"k\n":"\t\"\\\u0001\u001f|} ^ "\127" ^ {|","g":0.1,"f":2.50,"i":-3,"l":[null,true,{}]}|})
    (J.to_string
       (Obj
          [
            ("k\n", String "\t\"\\\001\031\127");
            ("g", Float 0.1);
            ("f", Fixed (2, 2.5));
            ("i", Int (-3));
            ("l", List [ Null; Bool true; Obj [] ]);
          ]))

let test_fixed_cases () =
  let ok what s v = Alcotest.(check bool) what true (J.parse s = Ok v) in
  let bad what s = Alcotest.(check bool) what true (Result.is_error (J.parse s)) in
  ok "\\u0001 decodes to one byte" {|"a\u0001b"|} (String "a\001b");
  ok "every ASCII byte round-trips" (J.to_string (String ascii)) (String ascii);
  ok "whitespace around values" " { \"a\" : [ 1 , 2.5e1 ] }\n"
    (Obj [ ("a", List [ Int 1; Float 25.0 ]) ]);
  ok "\\u00e9 decodes to UTF-8" {|"\u00e9"|} (String "\xc3\xa9");
  ok "int overflow falls back to float" "99999999999999999999" (Float 1e20);
  bad "tru5 is not true" "[tru5]";
  bad "unterminated string" {|{"a":"b|};
  bad "trailing garbage" "{} x";
  bad "trailing comma" "[1,]";
  bad "leading zero" "01";
  bad "raw control byte in a string" "\"a\001\"";
  bad "lone surrogate" {|"\ud800"|};
  bad "empty input" "";
  bad "deep nesting" (String.make 100_000 '[')

(* The bench gate reads these; all must stay parseable. *)
let test_bench_baselines_parse () =
  let files =
    List.filter
      (fun f -> String.starts_with ~prefix:"BENCH_pr" f && Filename.check_suffix f ".json")
      (Array.to_list (Sys.readdir ".."))
  in
  Alcotest.(check bool) "baselines found" true (files <> []);
  List.iter
    (fun f ->
      let ic = open_in_bin (Filename.concat ".." f) in
      let doc = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match J.parse doc with
      | Ok j ->
          Alcotest.(check bool) (f ^ " has veil_bench") true (J.member "veil_bench" j <> None)
      | Error e -> Alcotest.fail (f ^ ": " ^ e))
    files

let suite =
  [
    q prop_round_trip;
    q prop_parse_total;
    Alcotest.test_case "printer layout" `Quick test_printer_layout;
    Alcotest.test_case "fixed parse cases" `Quick test_fixed_cases;
    Alcotest.test_case "committed bench baselines parse" `Quick test_bench_baselines_parse;
  ]
