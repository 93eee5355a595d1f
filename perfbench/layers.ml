(* Store-layout and generation metrics shared by every workload's
   traced run: bytes on disk per storage word, and the time to load
   (and hot-reload) a generation from the store. *)

open Common
module Store = Rs_core.Store

let bytes_per_word dir =
  let store = Store.open_dir dir in
  let bytes, words =
    List.fold_left
      (fun (b, w) name ->
        match Store.get store ~name with
        | Ok s ->
            ( b + file_size (Filename.concat dir (name ^ ".rs")),
              w + Rs_core.Synopsis.storage_words s )
        | Error _ -> (b, w))
      (0, 0) (Store.list store)
  in
  float_of_int bytes /. float_of_int (max 1 words)

let load_ms ?dataset dir =
  median
    (Array.init 3 (fun i ->
         let t0 = now () in
         ignore (Rs_serve.Generation.load ?dataset ~gen_id:(i + 1) dir);
         1e3 *. (now () -. t0)))

let reload_ms ?dataset dir =
  match
    Rs_serve.Server.create
      { (Rs_serve.Server.default_config ~store_dir:dir) with Rs_serve.Server.dataset }
  with
  | Error _ -> nan
  | Ok srv ->
      let ms =
        median
          (Array.init 3 (fun _ ->
               let t0 = now () in
               ignore (Rs_serve.Server.reload srv);
               1e3 *. (now () -. t0)))
      in
      Rs_serve.Server.close srv;
      ms

let store ?dataset ?reload dir =
  [
    m "store.bytes_per_word" "B/word" (bytes_per_word dir);
    m "generation.load_ms" "ms" (load_ms ?dataset dir);
    m "generation.reload_ms" "ms"
      (match reload with Some ms -> ms | None -> reload_ms ?dataset dir);
  ]

(* {2 Layer replay of one served request (traced runs)}

   The request line and its response go once more through the layers
   the server runs them through, each timed on its own from here:
   protocol decode and encode, the answer cache, and the batch kernel
   on the entry's plan.  [kind] tags the request class. *)

module P = Rs_serve.Protocol

(* [Batch.eval] over [reps] evaluations, so the clock's resolution does
   not dominate narrow requests. *)
let batch_eval ~kind plan ranges =
  let nr = Array.length ranges in
  let out = Array.make nr 0. in
  let reps = 16 in
  let t0 = now () in
  for _ = 1 to reps do
    Rs_query.Batch.eval plan ~ranges ~lo:0 ~hi:(nr - 1) ~out
  done;
  let dt = (now () -. t0) /. float_of_int reps in
  Span.record ("batch.eval." ^ kind) dt;
  Span.record "batch.eval_ns_per_range" (dt *. 1e9 /. float_of_int nr)

let replay ~gen ~cache ~kind line resp =
  if !Span.on then begin
    let req = Span.time ("protocol.decode." ^ kind) (fun () -> P.decode_request line) in
    match P.decode_response resp with
    | Error _ -> ()
    | Ok r -> (
        let buf = Buffer.create 4096 in
        Span.time ("protocol.encode." ^ kind) (fun () -> P.encode_response_into buf r);
        match (r, req) with
        | P.Answers { estimates; _ }, Ok (P.Query { synopsis; ranges; _ }) -> (
            Span.time "cache.put" (fun () -> Rs_serve.Cache.put cache line estimates);
            match Rs_serve.Generation.find gen synopsis with
            | Some e -> batch_eval ~kind e.Rs_serve.Generation.plan ranges
            | None -> ())
        | _ -> ())
  end
