module T = Sevsnp.Types
module C = Sevsnp.Cycles
module P = Sevsnp.Platform

let n_pcrs = 8
let pcr_size = 32

type t = {
  mon : Monitor.t;
  storage_gpfn : T.gpfn;  (** one Dom_SEC frame holds all banks *)
  key : Veil_crypto.Schnorr.keypair;
  rng : Veil_crypto.Rng.t;
  mutable extends : int;
}

type quote = {
  q_pcrs : bytes array;
  q_nonce : bytes;
  q_signature : Veil_crypto.Schnorr.signature;
}

let pcr_gpa t i = T.gpa_of_gpfn t.storage_gpfn + (i * pcr_size)

(* Trusted-side accessors run at whatever domain the caller holds; the
   boot VCPU hops to Dom_SEC when called from below (like Slog). *)
let with_sec t f =
  let vcpu = Monitor.boot_vcpu t.mon in
  let here = Privdom.of_vmpl (Sevsnp.Vcpu.vmpl vcpu) in
  let need = not (Privdom.more_privileged here Privdom.Enc || Privdom.equal here Privdom.Sec) in
  if need then Monitor.domain_switch t.mon vcpu ~target:Privdom.Sec;
  let r = f vcpu in
  if need then Monitor.domain_switch t.mon vcpu ~target:here;
  r

let pcr_value t i =
  if i < 0 || i >= n_pcrs then invalid_arg "Vtpm.pcr_value";
  with_sec t (fun vcpu -> P.read (Monitor.platform t.mon) vcpu (pcr_gpa t i) pcr_size)

let extends_count t = t.extends

let quote_public_key t = t.key.Veil_crypto.Schnorr.public

let extend t vcpu ~pcr ~data =
  if pcr < 0 || pcr >= n_pcrs then Idcb.Resp_error "VeilS-TPM: no such PCR"
  else begin
    let platform = Monitor.platform t.mon in
    let current = P.read platform vcpu (pcr_gpa t pcr) pcr_size in
    Sevsnp.Vcpu.charge vcpu C.Crypto (C.hash_cost (pcr_size + Bytes.length data));
    P.write platform vcpu (pcr_gpa t pcr)
      (Veil_crypto.Sha256.chain_step (Veil_crypto.Sha256.init ()) current data 0 (Bytes.length data));
    t.extends <- t.extends + 1;
    Idcb.Resp_ok
  end

let quote_message pcrs nonce =
  let m = Veil_crypto.Measurement.create ~domain:"veils-tpm-quote" in
  Array.iteri (fun i p -> Veil_crypto.Measurement.add_bytes m ~label:(string_of_int i) p) pcrs;
  Veil_crypto.Measurement.add_bytes m ~label:"nonce" nonce;
  Veil_crypto.Measurement.digest m

let quote_to_bytes q =
  let buf = Buffer.create 512 in
  Array.iter (Buffer.add_bytes buf) q.q_pcrs;
  Buffer.add_uint16_be buf (Bytes.length q.q_nonce);
  Buffer.add_bytes buf q.q_nonce;
  Buffer.add_bytes buf (Veil_crypto.Schnorr.signature_to_bytes q.q_signature);
  Buffer.to_bytes buf

let quote_of_bytes b =
  try
    let pcrs = Array.init n_pcrs (fun i -> Bytes.sub b (i * pcr_size) pcr_size) in
    let off = n_pcrs * pcr_size in
    let nlen = Bytes.get_uint16_be b off in
    let nonce = Bytes.sub b (off + 2) nlen in
    let sig_bytes = Bytes.sub b (off + 2 + nlen) (Bytes.length b - off - 2 - nlen) in
    Option.map
      (fun s -> { q_pcrs = pcrs; q_nonce = nonce; q_signature = s })
      (Veil_crypto.Schnorr.signature_of_bytes sig_bytes)
  with Invalid_argument _ -> None

let verify_quote ~public q =
  Veil_crypto.Schnorr.verify ~public ~msg:(quote_message q.q_pcrs q.q_nonce) q.q_signature

let make_quote t vcpu ~nonce =
  let platform = Monitor.platform t.mon in
  let pcrs = Array.init n_pcrs (fun i -> P.read platform vcpu (pcr_gpa t i) pcr_size) in
  Sevsnp.Vcpu.charge vcpu C.Crypto (C.hash_cost (n_pcrs * pcr_size) + 60_000 (* sign *));
  let signature = Veil_crypto.Schnorr.sign t.rng ~secret:t.key.Veil_crypto.Schnorr.secret
      (quote_message pcrs nonce)
  in
  Idcb.Resp_quote (quote_to_bytes { q_pcrs = pcrs; q_nonce = nonce; q_signature = signature })

let expected_pcr ~events =
  let ctx = Veil_crypto.Sha256.init () in
  List.fold_left
    (fun acc ev -> Veil_crypto.Sha256.chain_step ctx acc ev 0 (Bytes.length ev))
    (Bytes.make pcr_size '\000') events

let handler t _mon vcpu (req : Idcb.request) =
  match req with
  | Idcb.R_tpm_extend { pcr; data } -> Some (extend t vcpu ~pcr ~data)
  | Idcb.R_tpm_quote { nonce } -> Some (make_quote t vcpu ~nonce)
  | _ -> None

let install mon =
  let rng = Veil_crypto.Rng.split (Monitor.platform mon).P.rng in
  let t =
    {
      mon;
      storage_gpfn = Monitor.alloc_svc_frame mon;
      key = Veil_crypto.Schnorr.keygen rng;
      rng;
      extends = 0;
    }
  in
  Monitor.register_service mon ~name:"veils-tpm" ~target:Privdom.Sec (fun m vcpu req ->
      handler t m vcpu req);
  t
