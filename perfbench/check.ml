(* Checking answers against exact counts the benchmark computes
   itself, and the properties every run must hold. *)

open Reply

(* --- the stream's exact counts, replayed from the write log ------------ *)

type stream_truth = {
  at_epoch : (int, int array) Hashtbl.t;  (* epoch → count per predicate *)
  at_population : (int, int array) Hashtbl.t;
}

let replay_log (data : Data.t) (log : Mix.write_log) =
  let preds = log.predicates in
  let col_index attr =
    let rec find j = if data.orders.attrs.(j) = attr then j else find (j + 1) in
    find 0
  in
  let idx = Array.map (fun (f : Data.filter) -> col_index f.attr) preds in
  let matches (tuple : int array) =
    Array.mapi (fun p (f : Data.filter) -> Data.holds f.op tuple.(idx.(p)) f.const) preds
  in
  let counts = Array.map (fun f -> Data.count_filter data.orders f) preds in
  let base_rows = Data.cardinality data.orders in
  let row id = Array.map (fun col -> col.(id)) data.orders.cols in
  let inserted = Hashtbl.create 4096 in
  let at_epoch = Hashtbl.create 4096 and at_population = Hashtbl.create 4096 in
  let start_epoch, start_population = log.start in
  Hashtbl.replace at_epoch start_epoch (Array.copy counts);
  Hashtbl.replace at_population start_population (Array.copy counts);
  let batches = List.sort (fun (a : Mix.batch) b -> compare a.epoch b.epoch) log.batches in
  let last_epoch = ref start_epoch in
  List.iter
    (fun (b : Mix.batch) ->
      (* Rescans bump the epoch without changing the live set. *)
      for e = !last_epoch + 1 to b.epoch - 1 do
        Hashtbl.replace at_epoch e (Array.copy counts)
      done;
      Array.iteri
        (fun k tuple ->
          Hashtbl.replace inserted (b.first_id + k) tuple;
          Array.iteri (fun p m -> if m then counts.(p) <- counts.(p) + 1) (matches tuple))
        b.tuples;
      Array.iter
        (fun id ->
          let tuple = if id < base_rows then row id else Hashtbl.find inserted id in
          Array.iteri (fun p m -> if m then counts.(p) <- counts.(p) - 1) (matches tuple))
        b.deletes;
      Hashtbl.replace at_epoch b.epoch (Array.copy counts);
      Hashtbl.replace at_population b.population (Array.copy counts);
      last_epoch := b.epoch)
    batches;
  (* Rescans after the last batch. *)
  for e = !last_epoch + 1 to !last_epoch + log.rescans do
    Hashtbl.replace at_epoch e (Array.copy counts)
  done;
  { at_epoch; at_population }

(* Which coverage a read's interval counts towards: row-sampled
   selections, page samples, or replicate groups (query/sql). *)
let interval_kind (kind : Mix.kind) =
  match kind with
  | Estimate -> Some "selection"
  | Pages -> Some "pages"
  | Sql | Query | Query_opt -> Some "replicate"
  | Census | Stream_estimate | Stream_sql | Ingest | Rescan -> None

(* --- checking one run ------------------------------------------------- *)

type checked = {
  reads : int;
  read_latencies : float list;  (* ms *)
  write_latencies : float list;  (* ms *)
  write_rows : int;
  qerrs : float list;
  failed : int;
  problems : string list;  (* failed correctness checks *)
  per_kind : (Mix.kind * (int * int)) list;  (* attempted, failed *)
  census_reads : int;  (* census requests and any other zero-width interval *)
  census_inexact_points : int;  (* census whose float point is not the integer *)
  coverage : (string * int * int) list;  (* kind, reads, CI contains truth *)
  halfwidths : float list;  (* CI half-width / point, sampled reads *)
}

let check ~corrupt ~stream_truth (records : Loadgen.record list) =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let texts = Hashtbl.create 64 in
  let per_kind = Hashtbl.create 16 in
  let bump kind failed =
    let a, f = Option.value ~default:(0, 0) (Hashtbl.find_opt per_kind kind) in
    Hashtbl.replace per_kind kind (a + 1, if failed then f + 1 else f)
  in
  let reads = ref 0 and failed = ref 0 in
  let read_lat = ref [] and write_lat = ref [] and write_rows = ref 0 and qerrs = ref [] in
  let census = ref 0 and inexact = ref 0 in
  let cov = Hashtbl.create 4 and halfwidths = ref [] in
  let add_cov name hit =
    let n, h = Option.value ~default:(0, 0) (Hashtbl.find_opt cov name) in
    Hashtbl.replace cov name (n + 1, if hit then h + 1 else h)
  in
  (* [corrupt]: the first census read (or zero-width interval) is
     checked against its exact count plus one. *)
  let corrupt_next = ref corrupt in
  List.iter
    (fun (r : Loadgen.record) ->
      let json = parse r.reply in
      let good = ok json in
      bump r.req.kind (not good);
      if not good then incr failed;
      let ms = 1000. *. r.latency in
      if Mix.is_read r.req.kind then begin
        incr reads;
        read_lat := ms :: !read_lat
      end
      else write_lat := ms :: !write_lat;
      if good then begin
        let t = text json in
        (match r.req.kind with
        | Mix.Ingest -> write_rows := !write_rows + result_int json "inserted" + result_int json "deleted"
        | _ -> ());
        (* The same request line must always get the same text
           (stream reads only at the same epoch). *)
        (if Mix.is_read r.req.kind then
           let key =
             match r.req.kind with
             | Mix.Stream_estimate -> Printf.sprintf "%s@%d" r.req.line (result_int json "epoch")
             | Mix.Stream_sql ->
               Printf.sprintf "%s@%d" r.req.line (Option.value ~default:(-1) (tuples_read t))
             | _ -> r.req.line
           in
           match Hashtbl.find_opt texts key with
           | Some t0 when t0 <> t -> problem "same request, different text: %s" r.req.line
           | Some _ -> ()
           | None -> Hashtbl.replace texts key t);
        let truth =
          match r.req.truth with
          | Mix.Count c -> Some (Lazy.force c)
          | Mix.Stream_filter p -> (
            let e = result_int json "epoch" in
            match Hashtbl.find_opt (Option.get stream_truth).at_epoch e with
            | Some counts -> Some counts.(p)
            | None ->
              problem "stream estimate at unknown epoch %d" e;
              None)
          | Mix.Stream_census p -> (
            match tuples_read t with
            | Some population -> (
              match Hashtbl.find_opt (Option.get stream_truth).at_population population with
              | Some counts -> Some counts.(p)
              | None ->
                problem "stream census over unknown population %d" population;
                None)
            | None ->
              problem "stream census without a tuple count: %s" t;
              None)
          | Mix.No_truth -> None
        in
        match truth with
        | None -> ()
        | Some truth ->
          let p = point json in
          qerrs := q_error ~point:p ~truth :: !qerrs;
          (* Every zero-width interval claims certainty, so it must be
             the exact count whatever kind of request drew it; census
             requests must also come back zero-width. *)
          let census_kind =
            match r.req.kind with Mix.Census | Mix.Stream_sql -> true | _ -> false
          in
          let interval = ci t in
          let zero_width = match interval with Some (lo, hi) -> lo = hi | None -> false in
          if census_kind || zero_width then begin
            incr census;
            let truth = if !corrupt_next then truth + 1 else truth in
            corrupt_next := false;
            (match rendered_count t with
            | Some n when n = truth -> ()
            | _ ->
              problem "%s answer %s differs from exact %d: %s"
                (if census_kind then "census" else "zero-width")
                (String.escaped t) truth r.req.line);
            (match interval with
            | Some (lo, hi) when lo <> hi -> problem "census with a non-zero-width CI: %s" r.req.line
            | _ -> ());
            if p <> Float.round p then incr inexact
          end;
          match interval with
          | _ when census_kind -> ()
          | None -> ()
          | Some (lo, hi) -> (
            if p > 0. then halfwidths := ((hi -. lo) /. 2. /. p) :: !halfwidths;
            match interval_kind r.req.kind with
            | Some name ->
              let ft = float_of_int truth in
              add_cov name (lo <= ft && ft <= hi)
            | None -> ())
      end)
    records;
  {
    reads = !reads;
    read_latencies = !read_lat;
    write_latencies = !write_lat;
    write_rows = !write_rows;
    qerrs = !qerrs;
    failed = !failed;
    problems = List.rev !problems;
    per_kind =
      List.filter_map
        (fun k -> Option.map (fun v -> (k, v)) (Hashtbl.find_opt per_kind k))
        Mix.kinds;
    census_reads = !census;
    census_inexact_points = !inexact;
    coverage =
      List.filter_map
        (fun name -> Option.map (fun (n, h) -> (name, n, h)) (Hashtbl.find_opt cov name))
        [ "selection"; "pages"; "replicate" ];
    halfwidths = !halfwidths;
  }

(* Coverage of the nominal 95% intervals must lie in a binomial band:
   4.5 standard errors either side of 0.95 for the reads observed. *)
let coverage_band reads =
  let se = sqrt (0.95 *. 0.05 /. float_of_int reads) in
  (0.95 -. (4.5 *. se), 0.95 +. (4.5 *. se))

