(* The traced run (--trace 1): per-layer metrics, measured apart from
   the end-to-end runs.

   1. The workload's window against a daemon, exactly as in an
      end-to-end run but with two set-ups: it gives the client.*
      metrics (median, tail and rate, which carry no bound), its
      read_p50 is the untraced reference, and the daemon's metrics op,
      diffed across it, gives the work counts.
   2. A replay of the workload's first [replay_lines] requests, each
      line sent in turn to a fresh daemon (socket round trip), to an
      in-process Server state through Server.execute, and to a second
      in-process state through Server.handle_line — three copies fed
      the same lines, so their caches evolve alike.
   3. Timed calls into each module's public functions, on the
      workload's own shapes; a layer the workload never reaches is
      timed on a fixed probe from the adhoc-cold (or ingest-mixed)
      generator with the same seed, so every metric is measured on
      every workload.

   Times are medians in µs unless the name says otherwise. *)

open Reply
module SR = Raestat.Stream_relation

let replay_lines = 160

let us seconds = 1e6 *. seconds

let time f =
  let t0 = Loadgen.now () in
  let v = f () in
  (v, Loadgen.now () -. t0)

let time_us f = us (snd (time f))
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let median_or_zero = function [] -> 0. | l -> median l

(* --- request fields --------------------------------------------------- *)

let field line name =
  match J.parse line with Ok json -> J.member name json | Error _ -> None

let str line name = match field line name with Some (J.Str s) -> s | _ -> ""

let num line name default =
  match field line name with
  | Some (J.Int i) -> float_of_int i
  | Some (J.Float f) -> f
  | _ -> default

let int line name default =
  match field line name with Some (J.Int i) -> i | _ -> default

(* The op groups behind the serve.engine metrics. *)
let group (kind : Mix.kind) =
  match kind with
  | Estimate | Census -> Some "estimate"
  | Pages -> Some "pages"
  | Query | Query_opt -> Some "query"
  | Sql | Stream_sql -> Some "sql"
  | Stream_estimate -> Some "stream"
  | Ingest | Rescan -> None

(* --- 2. the replay ---------------------------------------------------- *)

type sample = {
  req : Mix.req;
  rtt : float;  (* socket round trip *)
  execute : float;  (* Server.execute *)
  handle : float;  (* Server.handle_line *)
  parse : float;  (* Json.parse of the request *)
  render : float;  (* Json.to_string of the response *)
  bytes : int;
}

let config (data : Data.t) =
  {
    Serve.Server.listen = Serve.Server.Unix_socket "unused.sock";
    bindings = data.bindings;
    plan_capacity = 64;
    queue_limit = 64;
    workers = E2e.workers;
  }

(* Interleave the connections' scripts line by line, feeding each
   reply back to its script (the ingest writer needs them). *)
let replay ~exe (data : Data.t) (w : E2e.workload) =
  let daemon = E2e.start_daemon ~exe data w.warmup ~on_warm:(E2e.on_warm w) in
  let exec_state = Serve.Server.create_state (config data) in
  let handle_state = Serve.Server.create_state (config data) in
  List.iter
    (fun (req : Mix.req) ->
      ignore (Serve.Server.execute exec_state req.line);
      ignore (Serve.Server.handle_line handle_state req.line))
    w.warmup;
  let queues = Array.map (fun (s : Mix.script) -> s.round 0) w.scripts in
  let rounds = Array.make (Array.length queues) 1 in
  let samples = ref [] in
  for i = 0 to replay_lines - 1 do
    let c = i mod Array.length queues in
    if queues.(c) = [] then begin
      queues.(c) <- w.scripts.(c).round rounds.(c);
      rounds.(c) <- rounds.(c) + 1
    end;
    match queues.(c) with
    | [] -> ()
    | req :: rest ->
      queues.(c) <- rest;
      let reply, rtt = Loadgen.call daemon.conns.(0) req.line in
      let _, execute = time (fun () -> Serve.Server.execute exec_state req.line) in
      let _, parse = time (fun () -> J.parse req.line) in
      let response, handle = time (fun () -> Serve.Server.handle_line handle_state req.line) in
      let parsed = Reply.parse response in
      let _, render = time (fun () -> J.to_string parsed) in
      samples :=
        { req; rtt; execute; handle; parse; render; bytes = String.length response }
        :: !samples;
      queues.(c) <- w.scripts.(c).on_reply req reply @ queues.(c)
  done;
  let pings =
    List.init 200 (fun _ -> snd (Loadgen.call daemon.conns.(0) {|{"op":"ping"}|}))
  in
  E2e.stop daemon;
  Serve.Server.destroy_state exec_state;
  Serve.Server.destroy_state handle_state;
  (List.rev !samples, pings)

(* --- 3. module calls -------------------------------------------------- *)

let loads (data : Data.t) =
  let csvs = List.filter (fun (_, p) -> Filename.check_suffix p ".csv") data.bindings in
  let relations, csv_s = time (fun () -> List.map (fun (_, p) -> Relational.Csv.load p) csvs) in
  let (), view_s = time (fun () -> List.iter Relational.Relation.warm_view relations) in
  let raf = List.assoc "orders_p" data.bindings in
  let pf, open_s =
    time (fun () ->
        let pf = Relational.Pagefile.openfile raf in
        ignore (Relational.Pagefile.to_relation pf);
        pf)
  in
  Relational.Pagefile.close pf;
  let warm, load_s = time (fun () -> Serve.Warm.load data.bindings) in
  Serve.Warm.release warm;
  [
    ("serve.warm.load_s", "s", load_s);
    ("relational.csv.load_s", "s", csv_s);
    ("relational.relation.warm_view_s", "s", view_s);
    ("relational.pagefile.open_s", "s", open_s);
  ]

let predicate line = Serve.Engine.predicate_of_string (str line "where")

let expr_of catalog line =
  match str line "op" with
  | "sql" -> Serve.Engine.sql_expr catalog (str line "query")
  | _ -> Relational.Parser.parse_expr (str line "expr")

let first n l = List.filteri (fun i _ -> i < n) l

let module_calls (data : Data.t) catalog ~lines ~probe =
  (* The workload's own lines of the wanted kinds, else the probe's. *)
  let pick kinds =
    let own = List.filter (fun (r : Mix.req) -> List.mem r.kind kinds) lines in
    first 40 (if own <> [] then own else List.filter (fun (r : Mix.req) -> List.mem r.kind kinds) probe)
  in
  let card relation =
    Relational.Relation.cardinality (Relational.Catalog.find catalog relation)
  in
  let selections = pick [ Mix.Estimate; Mix.Census ] in
  let exprs = pick [ Mix.Query; Mix.Query_opt; Mix.Sql ] in
  let chains = pick [ Mix.Query; Mix.Query_opt ] in
  let sqls = pick [ Mix.Sql; Mix.Stream_sql ] in
  let pages = pick [ Mix.Pages ] in
  let compile =
    List.map
      (fun (r : Mix.req) ->
        time_us (fun () ->
            Serve.Engine.explain_selection catalog ~relation:(str r.line "relation")
              ~fraction:(num r.line "fraction" 0.01) (predicate r.line)))
      selections
    @ List.map
        (fun (r : Mix.req) ->
          let e = expr_of catalog r.line in
          time_us (fun () ->
              Serve.Engine.explain_expr catalog ~fraction:(num r.line "fraction" 0.01)
                ~groups:(int r.line "groups" 5) e))
        exprs
  in
  let choose =
    List.map
      (fun (r : Mix.req) ->
        let e = expr_of catalog r.line in
        time_us (fun () ->
            Serve.Engine.explain_expr_optimized catalog ~fraction:(num r.line "fraction" 0.01)
              ~groups:(int r.line "groups" 5) e))
      chains
  in
  let sql_parse =
    List.map
      (fun (r : Mix.req) ->
        time_us (fun () -> Relational.Sql.parse_optimized catalog (str r.line "query")))
      sqls
  in
  (* SRS draws at each selection shape's n and N, then the counting
     kernel over the drawn rows. *)
  let draws, counts =
    List.split
      (List.map
         (fun (r : Mix.req) ->
           let relation = str r.line "relation" in
           let universe = card relation in
           let n = Sampling.Srs.size_of_fraction ~fraction:(num r.line "fraction" 0.01) universe in
           let rng = Sampling.Rng.create ~seed:(int r.line "seed" 42) () in
           let idx, d =
             time (fun () -> Sampling.Srs.indices_without_replacement rng ~n ~universe)
           in
           let columns = Relational.Relation.columnar (Relational.Catalog.find catalog relation) in
           let k = time_us (fun () -> Relational.Kernel.count_indices columns (predicate r.line) idx) in
           (us d, k))
         selections)
  in
  let join =
    let orders = Relational.Catalog.find catalog "orders" in
    let suppliers = Relational.Catalog.find catalog "suppliers" in
    let oi = Relational.Schema.index_of (Relational.Relation.schema orders) "o_supplier" in
    let si = Relational.Schema.index_of (Relational.Relation.schema suppliers) "s_key" in
    let oc = Relational.Relation.columnar orders and sc = Relational.Relation.columnar suppliers in
    List.init 5 (fun _ ->
        time_us (fun () -> Relational.Kernel.equijoin_count oc oi sc si))
  in
  (* Page reads through one reader, so repeated page sets hit its cache
     as they do in the daemon. *)
  let pf = Relational.Pagefile.openfile (List.assoc "orders_p" data.bindings) in
  let page_reads =
    List.map
      (fun (r : Mix.req) ->
        let rng = Sampling.Rng.create ~seed:(int r.line "seed" 42) () in
        let idx =
          Sampling.Srs.indices_without_replacement rng ~n:(int r.line "pages" 16)
            ~universe:(Relational.Pagefile.page_count pf)
        in
        time_us (fun () -> Relational.Pagefile.read_pages pf idx ~f:(fun _ _ -> ())))
      pages
  in
  Relational.Pagefile.close pf;
  [
    ("core.estplan.compile_us", "us", median_or_zero compile);
    ("core.planner.choose_us", "us", median_or_zero choose);
    ("relational.sql.parse_us", "us", median_or_zero sql_parse);
    ("sampling.srs.draw_us", "us", median_or_zero draws);
    ("relational.kernel.count_us", "us", median_or_zero counts);
    ("relational.kernel.join_us", "us", median_or_zero join);
    ("relational.pagefile.read_us", "us", median_or_zero page_reads);
  ]

(* --- the maintained stream, in process -------------------------------- *)

(* The ingest-mixed writer's batches, as tuples; the stream numbers
   inserts sequentially from the base rows on. *)
let batches (data : Data.t) seed count =
  let base = Data.cardinality data.orders in
  let b = Mix.batches seed ~base_rows:base in
  let tuple t =
    Relational.Tuple.make (List.map (fun v -> Relational.Value.Int v) (Array.to_list t))
  in
  List.init count (fun i ->
      let inserts, deletes = b.next () in
      b.acked (base + (i * Mix.inserts_per_batch));
      (Array.map tuple inserts, deletes))

let stream_layer (data : Data.t) env seed catalog =
  let orders = Relational.Catalog.find catalog "orders" in
  let schema = Relational.Relation.schema orders in
  let log = batches data seed 300 in
  let _, _, wlog = Mix.ingest_mixed env seed in
  let predicates =
    Array.to_list
      (Array.map
         (fun f -> Serve.Engine.predicate_of_string (Data.filter_text f))
         wlog.Mix.predicates)
  in
  (* Serial replay of the write log. *)
  let sink = Obs.Metrics.create () in
  let stream = SR.create ~capacity:4096 ~metrics:sink ~seed ~schema () in
  ignore (SR.ingest stream ~inserts:(Relational.Relation.tuples orders) ~deletes:[||]);
  let before = Obs.Metrics.snapshot sink in
  let rows = ref 0 in
  let ingest_s =
    List.fold_left
      (fun acc (inserts, deletes) ->
        let c, dt = time (fun () -> SR.ingest stream ~inserts ~deletes) in
        rows := !rows + c.SR.inserted + c.SR.deleted;
        acc +. dt)
      0. log
  in
  let ops = (Obs.Metrics.diff (Obs.Metrics.snapshot sink) before).maintenance_ops in
  let estimates =
    List.concat_map
      (fun p -> List.init 20 (fun _ -> time_us (fun () -> SR.estimate_count stream p)))
      predicates
  in
  let snapshots =
    List.map
      (fun (inserts, deletes) ->
        ignore (SR.ingest stream ~inserts ~deletes);
        1000. *. snd (time (fun () -> SR.snapshot stream)))
      (first 5 log)
  in
  (* Readers waiting on the stream's lock while a writer domain replays
     1500 batches through the daemon's own Warm.with_stream. *)
  let warm = Serve.Warm.load [ ("orders", List.assoc "orders" data.bindings) ] in
  ignore
    (Serve.Warm.ensure_stream warm ~relation:"orders" ~seed ~capacity:4096 ~schema:None ());
  let started = Atomic.make false and writing = Atomic.make true in
  let writer =
    Domain.spawn (fun () ->
        Atomic.set started true;
        List.iter
          (fun (inserts, deletes) ->
            ignore (Serve.Warm.with_stream warm "orders" (fun s -> SR.ingest s ~inserts ~deletes)))
          (batches data (seed + 1) 1500);
        Atomic.set writing false)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let waits = ref [] and p = Array.of_list predicates in
  let k = ref 0 in
  while Atomic.get writing do
    let t0 = Loadgen.now () in
    let entered, _ =
      Serve.Warm.with_stream warm "orders" (fun s ->
          let t1 = Loadgen.now () in
          ignore (SR.estimate_count s p.(!k mod Array.length p));
          t1)
    in
    incr k;
    waits := us (entered -. t0) :: !waits
  done;
  Domain.join writer;
  Serve.Warm.release warm;
  [
    ("core.stream_relation.ingest_us_per_row", "us", us ingest_s /. float_of_int (max 1 !rows));
    ("core.stream_relation.maintenance_ops_per_row", "count", ratio ops !rows);
    ("core.stream_relation.estimate_us", "us", median_or_zero estimates);
    ("core.stream_relation.snapshot_ms", "ms", median_or_zero snapshots);
    ("serve.warm.stream_wait_us_p50", "us", median_or_zero !waits);
    ("serve.warm.stream_wait_us_p99", "us", if !waits = [] then 0. else percentile !waits 0.99);
  ]

(* --- the whole traced run --------------------------------------------- *)

let run ~exe ~workload ~seed ~seconds (data : Data.t) env =
  (* 1. the window, with one more set-up in it: on the read-only
     workloads, that daemon's write probe gives the client.write_*
     metrics *)
  let o = E2e.run ~exe ~workload ~seed ~seconds ~setups:2 data env in
  let attempted, problems = E2e.report ~workload ~seed o in
  let c = o.checked in
  let d name = counter o.counters name in
  let reads = c.reads in
  let per_read name = ratio (d name) reads in
  let window_p50_us = 1000. *. median c.read_latencies in
  let optimized_tuples =
    List.filter_map
      (fun (r : Loadgen.record) ->
        if r.req.kind = Mix.Query_opt then tuples_read (text (parse r.reply)) else None)
      o.records
  in
  let rescans = List.length (List.filter (fun (r : Loadgen.record) -> r.req.kind = Mix.Rescan) o.records) in
  (* 2. the replay *)
  let w = E2e.workload workload env seed in
  let samples, pings = replay ~exe data w in
  let reads_only = List.filter (fun s -> Mix.is_read s.req.kind) samples in
  let med f = median_or_zero (List.map f reads_only) in
  let socket = med (fun s -> us (s.rtt -. s.execute)) in
  let handoff = med (fun s -> us (s.execute -. s.handle)) in
  let handle = med (fun s -> us s.handle) in
  let traced_total = socket +. handoff +. handle in
  Printf.printf
    "traced: socket %.1f + hand-off %.1f + handle_line %.1f = %.1f us per read (medians of %d \
     replayed reads); untraced read_p50 of this run's window = %.1f us\n"
    socket handoff handle traced_total (List.length reads_only) window_p50_us;
  (* Engine time per op group: the workload's own replayed lines, or,
     when it has none, the probe's through a fresh in-process server. *)
  let state = Serve.Server.create_state (config data) in
  let probe_w = E2e.workload "adhoc-cold" env seed in
  let probe = List.concat_map probe_w.scripts.(0).round [ 0; 1; 2; 3 ] in
  let engine_group name =
    let own = List.filter (fun s -> group s.req.kind = Some name) samples in
    if own <> [] then median_or_zero (List.map (fun s -> us s.handle) own)
    else
      median_or_zero
        (List.filter_map
           (fun (r : Mix.req) ->
             if group r.kind = Some name then
               Some (time_us (fun () -> Serve.Server.handle_line state r.line))
             else None)
           probe)
  in
  let engine =
    List.map
      (fun g -> ("serve.engine." ^ g ^ "_us", "us", engine_group g))
      [ "estimate"; "pages"; "query"; "sql" ]
  in
  (* Interval coverage over the window's reads, or over the probe's
     reads of that kind when the workload has none. *)
  let coverage name =
    match List.find_opt (fun (n, _, _) -> n = name) c.coverage with
    | Some (_, n, h) -> ratio h n
    | None ->
      let hits =
        List.filter_map
          (fun (r : Mix.req) ->
            match (Check.interval_kind r.kind, r.truth) with
            | Some n, Mix.Count truth when n = name -> (
              match ci (text (parse (Serve.Server.handle_line state r.line))) with
              | Some (lo, hi) ->
                let t = float_of_int (Lazy.force truth) in
                Some (lo <= t && t <= hi)
              | None -> None)
            | _ -> None)
          probe
      in
      ratio (List.length (List.filter Fun.id hits)) (List.length hits)
  in
  let coverages = List.map (fun n -> (n, coverage n)) [ "selection"; "pages"; "replicate" ] in
  let catalog = Serve.Warm.catalog (Serve.Server.warm_state state) in
  let lines = List.map (fun s -> s.req) samples in
  let modules = module_calls data catalog ~lines ~probe in
  (* Stream reads: the workload's own, or the ingest-mixed reader's
     through the probe server after converting orders to a stream (last:
     it reroutes every later read of orders). *)
  let stream_us =
    let own = List.filter (fun s -> s.req.kind = Mix.Stream_estimate) samples in
    if own <> [] then median_or_zero (List.map (fun s -> us s.handle) own)
    else begin
      ignore
        (Serve.Server.handle_line state
           {|{"op":"ingest","relation":"orders","insert":[],"delete":[],"capacity":4096}|});
      let _, scripts, _ = Mix.ingest_mixed env seed in
      median_or_zero
        (List.map
           (fun (r : Mix.req) -> time_us (fun () -> Serve.Server.handle_line state r.line))
           (first 36 (scripts.(1).round 0)))
    end
  in
  Serve.Server.destroy_state state;
  let stream = stream_layer data env seed catalog in
  let load = loads data in
  let metrics =
    [
      ("serve.server.ping_rtt_us", "us", median_or_zero (List.map us pings));
      ("serve.server.socket_us", "us", socket);
      ("serve.pool.handoff_us", "us", handoff);
      ("serve.json.parse_us", "us", med (fun s -> us s.parse));
      ("serve.json.render_us", "us", med (fun s -> us s.render));
      ("serve.json.response_bytes", "bytes", med (fun s -> float_of_int s.bytes));
    ]
    @ engine
    @ [ ("serve.engine.stream_us", "us", stream_us) ]
    @ [
        ( "serve.plan_cache.hit_ratio",
          "ratio",
          ratio (d "plan_cache.hits") (d "plan_cache.hits" + d "plan_cache.misses") );
        ( "serve.plan_cache.evictions_per_kread",
          "count",
          1000. *. per_read "plan_cache.evictions" );
        ( "serve.warm.sample_hit_ratio",
          "ratio",
          ratio (d "warm_samples.sample_hits")
            (d "warm_samples.sample_hits" + d "warm_samples.sample_misses") );
      ]
    @ load @ modules
    @ [
        ("core.estplan.tuples_per_read", "count", per_read "counters.tuples_scanned");
        ("core.planner.plans_considered_per_read", "count", per_read "counters.plans_considered");
        ( "core.planner.tuples_per_optimized_read",
          "count",
          median_or_zero (List.map float_of_int optimized_tuples) );
        ("sampling.srs.indices_per_read", "count", per_read "counters.sample_indices");
        ( "sampling.rng.draws_per_index",
          "ratio",
          ratio (d "counters.rng_draws") (d "counters.sample_indices") );
        ( "relational.kernel.probes_per_read",
          "count",
          ratio (d "counters.hash_probe_hits" + d "counters.hash_probe_misses") reads );
        ("relational.pagefile.pages_read_per_read", "count", per_read "counters.pages_read");
        ("relational.pagefile.bytes_read_per_read", "bytes", per_read "counters.bytes_read");
        ("relational.pagefile.io_batches_per_read", "count", per_read "counters.io_batches");
        ( "relational.pagefile.cache_hit_ratio",
          "ratio",
          ratio (d "counters.page_cache_hits") (d "counters.page_cache_hits" + d "counters.pages_read") );
      ]
    @ stream
    @ [
        ("core.stream_relation.rescans", "count", float_of_int rescans);
        ("stats.confidence.coverage_selection", "ratio", List.assoc "selection" coverages);
        ("stats.confidence.coverage_pages", "ratio", List.assoc "pages" coverages);
        ("stats.confidence.coverage_replicate", "ratio", List.assoc "replicate" coverages);
        ("stats.confidence.halfwidth_rel_p50", "ratio", median_or_zero c.halfwidths);
        ("trace.unattributed_us", "us", window_p50_us -. traced_total);
      ]
    @ E2e.client_metrics o
  in
  emit ~correct:(problems = []) ~attempted ~failed:c.failed metrics
