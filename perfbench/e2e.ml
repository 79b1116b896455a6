(* One end-to-end run: set-up (timed several times), the timed window
   over two closed-loop connections, the daemon's accounting diffed
   across it, and the checks. *)

open Reply

(* nproc is 2 on the reference machine: two worker domains, two
   client connections. *)
let workers = 2

type setup = { daemon : Loadgen.daemon; conns : Loadgen.conn array; seconds : float }

(* Spawn to the end of the warm-up: the ready line (catalog loaded,
   columnar views forced), two connections, the warm-up requests. *)
let start_daemon ?(socket = "serve.sock") ~exe (data : Data.t) warmup ~on_warm =
  let t0 = Loadgen.now () in
  let daemon = Loadgen.spawn ~exe ~socket ~workers data.bindings in
  let conns = Array.init 2 (fun _ -> Loadgen.connect socket) in
  List.iter
    (fun (req : Mix.req) ->
      let reply, _ = Loadgen.call conns.(0) req.line in
      let json = parse reply in
      if not (ok json) then failwith ("perfbench: warm-up request failed: " ^ reply);
      on_warm req json)
    warmup;
  { daemon; conns; seconds = Loadgen.now () -. t0 }

let stop s =
  Array.iter Loadgen.close s.conns;
  Loadgen.reap s.daemon

type workload = {
  warmup : Mix.req list;
  scripts : Mix.script array;
  log : Mix.write_log option;  (* ingest-mixed only *)
}

let workload name env seed =
  match name with
  | "dash-hot" ->
    let warmup, scripts = Mix.dash_hot env seed in
    { warmup; scripts; log = None }
  | "adhoc-cold" ->
    let warmup, scripts = Mix.adhoc_cold env seed in
    { warmup; scripts; log = None }
  | _ ->
    let warmup, scripts, log = Mix.ingest_mixed env seed in
    { warmup; scripts; log = Some log }

(* The ingest warm-up converts orders to a stream: its reply fixes the
   epoch and population the write log starts from. *)
let on_warm w (req : Mix.req) json =
  match (req.kind, w.log) with
  | Mix.Ingest, Some log when fst log.start < 0 ->
    log.start <- (result_int json "epoch", result_int json "population")
  | _ -> ()

(* Writes on the read-only workloads, probed on every daemon set up
   during the window: for [probe_seconds], connection 0 streams the
   ingest writer's batches into a relation "probe" that nothing else
   reads, while connection 1 goes on with the workload's reads (their
   rounds continue from probe to probe), as the reader does on
   ingest-mixed.  Every workload so reports the write path's latency
   beside its own reads: write_p10_ms is the median over the probes of
   each one's 10th percentile, client.write_p50_ms the median of all
   probe writes, and client.write_rows_per_s the median of the probes'
   rates, each over the writer's own span (the reader may still be
   finishing its round).  One probe's 10th percentile moves by 20%
   from one fresh daemon to the next, so every run takes eight. *)
let probe_seconds = 1.2

type probe = { latencies : float list; (* ms *) rows : int; seconds : float }

let write_probe s (w : workload) ~round seed =
  let writer = Mix.writer seed ~relation:"probe" ~base_rows:0 ~log:(Mix.new_log [||]) in
  let records, _ =
    Loadgen.closed_loop ~round s.conns [| writer; w.scripts.(1) |] ~seconds:probe_seconds
  in
  List.fold_left
    (fun p (r : Loadgen.record) ->
      let json = parse r.reply in
      if not (ok json) then failwith ("perfbench: write probe failed: " ^ r.reply);
      if r.req.kind <> Mix.Ingest then p
      else
        {
          latencies = (1000. *. r.latency) :: p.latencies;
          rows = p.rows + result_int json "inserted" + result_int json "deleted";
          seconds = Float.max p.seconds r.finished;
        })
    { latencies = []; rows = 0; seconds = 0. }
    records

(* After the window (writer stopped), the same line sent twice, on
   different connections, must come back with the same text. *)
let repeat_failures s (records : Loadgen.record list) =
  records
  |> List.filter (fun (r : Loadgen.record) -> Mix.is_read r.req.kind)
  |> List.map (fun (r : Loadgen.record) -> r.req.line)
  |> List.sort_uniq compare
  |> List.filteri (fun i _ -> i < 12)
  |> List.filter (fun line ->
         let a = parse (fst (Loadgen.call s.conns.(0) line)) in
         let b = parse (fst (Loadgen.call s.conns.(1) line)) in
         not (ok a && ok b && text a = text b))

type outcome = {
  checked : Check.checked;
  counters : (string * int) list;  (* daemon metrics op, after − before *)
  window : float;  (* seconds *)
  machine : int array;  (* busy, idle, stolen ticks of the machine in the window *)
  setup_times : float list;
  rss_mb : float;
  repeats_differing : string list;
  probes : probe list;  (* read-only workloads *)
  records : Loadgen.record list;
  wrong_truth_caught : bool;
}

let run ~exe ~workload:name ~seed ~seconds ~setups (data : Data.t) env =
  let w = workload name env seed in
  (* Set-up is timed [setups] times, each with a fresh daemon.  The
     first serves the window, which is cut into [setups] slices; after
     each slice but the last, another daemon is set up on its own
     socket (and write-probed) while the window's daemon idles, then
     stopped.  The median so spans the whole window. *)
  let times = ref [] and probes = ref [] and probe_round = [| 0; 0 |] in
  let setup ?socket () =
    let s = start_daemon ?socket ~exe data w.warmup ~on_warm:(on_warm w) in
    times := s.seconds :: !times;
    s
  in
  let s = setup () in
  let before = metrics_snapshot s.conns.(0) in
  let round = Array.make (Array.length w.scripts) 0 in
  let slice = seconds /. float_of_int setups in
  let machine = Array.make 3 0 in
  let rec slices k (records, window) =
    let t0 = Loadgen.machine_ticks () in
    let r, dt = Loadgen.closed_loop ~round s.conns w.scripts ~seconds:slice in
    Array.iteri (fun j t -> machine.(j) <- machine.(j) + t - t0.(j)) (Loadgen.machine_ticks ());
    let acc = (List.rev_append r records, window +. dt) in
    if k = setups then acc
    else begin
      let side = setup ~socket:"side.sock" () in
      if w.log = None then probes := write_probe side w ~round:probe_round seed :: !probes;
      stop side;
      slices (k + 1) acc
    end
  in
  let records, window = slices 1 ([], 0.) in
  let records = List.rev records in
  let after = metrics_snapshot s.conns.(0) in
  let rss_mb = Loadgen.peak_rss_mb s.daemon in
  let repeats_differing = repeat_failures s records in
  stop s;
  let stream_truth = Option.map (Check.replay_log data) w.log in
  (* The checks must have teeth: the same records checked against one
     deliberately wrong census truth have to fail. *)
  let corrupted = Check.check ~corrupt:true ~stream_truth records in
  {
    checked = Check.check ~corrupt:false ~stream_truth records;
    wrong_truth_caught = corrupted.problems <> [];
    counters = diff_counters after before;
    window;
    machine;
    setup_times = List.rev !times;
    rss_mb;
    repeats_differing;
    probes = List.rev !probes;
    records;
  }

(* Print the run's accounting and checks; returns the problems found. *)
let report ~workload ~seed o =
  let c = o.checked in
  let attempted = List.fold_left (fun acc (_, (a, _)) -> acc + a) 0 c.per_kind in
  Printf.printf "workload %s seed %d: %d operations in a %.3f s window, %d reads\n" workload
    seed attempted o.window c.reads;
  List.iter
    (fun (k, (a, f)) ->
      Printf.printf "  op %-16s attempted %7d  failed %d\n" (Mix.kind_name k) a f)
    c.per_kind;
  (let total = max 1 (Array.fold_left ( + ) 0 o.machine) in
   let share j = float_of_int o.machine.(j) /. float_of_int total in
   Printf.printf "machine in the window: busy %.2f, idle %.2f, stolen by the host %.2f\n"
     (share 0) (share 1) (share 2));
  Printf.printf "read latency ms: p10 %.4f  p25 %.4f  p50 %.4f  p90 %.4f  p99 %.4f\n"
    (percentile c.read_latencies 0.10) (percentile c.read_latencies 0.25)
    (median c.read_latencies) (percentile c.read_latencies 0.90)
    (percentile c.read_latencies 0.99);
  if o.probes <> [] then
    Printf.printf "write probes, 10th percentile ms: %s\n"
      (String.concat " "
         (List.map (fun p -> Printf.sprintf "%.4f" (percentile p.latencies 0.10)) o.probes));
  Printf.printf "setup_s of %d set-ups: %s\n" (List.length o.setup_times)
    (String.concat " " (List.map (Printf.sprintf "%.4f") o.setup_times));
  Printf.printf "counters diffed across the window: {%s}\n"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) o.counters));
  (* The daemon's accounting must agree with ours: every window request
     answered (plus the closing metrics request), errors = failures,
     no overload rejects. *)
  let problems = ref (List.rev c.problems) in
  let expect name want =
    let got = counter o.counters name in
    if got <> want then
      problems := Printf.sprintf "daemon %s = %d, expected %d" name got want :: !problems
  in
  expect "requests" (attempted + 1);
  expect "errors" c.failed;
  expect "overloaded" 0;
  List.iter
    (fun l -> problems := ("a repeated request gave a different text: " ^ l) :: !problems)
    o.repeats_differing;
  Printf.printf "self-test: one census truth off by one is %s\n"
    (if o.wrong_truth_caught then "caught" else "NOT caught");
  if not o.wrong_truth_caught then
    problems := "a wrong census truth went unnoticed" :: !problems;
  Printf.printf "census reads: %d of %d (%.2f%%), %d with a point that is not an integer\n"
    c.census_reads c.reads
    (100. *. float_of_int c.census_reads /. float_of_int (max 1 c.reads))
    c.census_inexact_points;
  List.iter
    (fun (name, n, h) ->
      let lo, hi = Check.coverage_band n in
      let share = float_of_int h /. float_of_int n in
      let gated = workload = "adhoc-cold" && name <> "replicate" in
      Printf.printf "coverage %-9s %5d/%-5d = %.4f  band [%.4f, %.4f]%s\n" name h n share lo hi
        (if gated then "" else " (not gated)");
      if gated && (share < lo || share > hi) then
        problems :=
          Printf.sprintf "coverage %s %.4f outside [%.4f, %.4f]" name share lo hi :: !problems)
    c.coverage;
  let problems = List.rev !problems in
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) problems;
  (attempted, problems)

(* Write latencies (ms) and rate: the window's on ingest-mixed, the
   probes' on the read-only workloads (see write_probe). *)
let write_p10 o =
  match o.probes with
  | [] -> percentile o.checked.write_latencies 0.10
  | probes -> median (List.map (fun p -> percentile p.latencies 0.10) probes)

let writes o =
  let c = o.checked in
  match o.probes with
  | [] -> (c.write_latencies, float_of_int c.write_rows /. o.window)
  | probes ->
    ( List.concat_map (fun p -> p.latencies) probes,
      median (List.map (fun p -> float_of_int p.rows /. p.seconds) probes) )

(* The end-to-end metrics, the ones that carry a bound.  Latency is
   taken at the 10th percentile: the fast path of each request, which
   every saving on the request path moves, and which delayed vCPU
   wake-ups on a contended host move least (see README). *)
let metrics o =
  let c = o.checked in
  [
    ("setup_s", "s", median o.setup_times);
    ("read_p10_ms", "ms", percentile c.read_latencies 0.10);
    ("write_p10_ms", "ms", write_p10 o);
    ("qerr_p50", "ratio", median c.qerrs);
    ("qerr_p95", "ratio", percentile c.qerrs 0.95);
    ("peak_rss_mb", "MB", o.rss_mb);
  ]

(* What a client sees beyond the fast path: the traced run reports
   these from its own window, without a bound. *)
let client_metrics o =
  let c = o.checked in
  let write_latencies, write_rate = writes o in
  [
    ("client.read_p50_ms", "ms", median c.read_latencies);
    ("client.read_p99_ms", "ms", percentile c.read_latencies 0.99);
    ("client.read_rps", "1/s", float_of_int c.reads /. o.window);
    ("client.write_rows_per_s", "1/s", write_rate);
    ("client.write_p50_ms", "ms", median write_latencies);
  ]
