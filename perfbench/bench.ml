(* End-to-end benchmark of raestat serve.

     bench.exe --workload dash-hot|adhoc-cold|ingest-mixed --seed N
               --seconds S --trace 0|1

   Run from the repository root after building bin/raestat_cli.exe
   (perfbench/run.py does both).  Generates the catalog from the seed,
   starts the daemon as its own process, drives two closed-loop
   connections for S seconds, checks every answer against exact counts
   it computes itself, and prints the result as the last stdout line.
   --trace 1 is the separate traced run that reports per-layer
   metrics instead (Layers). *)

(* Set-ups timed per run, spread through the window; setup_s is their
   median. *)
let setups = 9

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
}

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME dash-hot | adhoc-cold | ingest-mixed");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced run (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload [ "dash-hot"; "adhoc-cold"; "ingest-mixed" ]) then begin
    prerr_endline "perfbench: --workload must be dash-hot, adhoc-cold or ingest-mixed";
    exit 2
  end;
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --seed >= 0, --seconds > 0 and --trace 0|1 are required";
    exit 2
  end;
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1 }

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let () =
  let args = parse_args () in
  let root = Sys.getcwd () in
  let exe = Filename.concat root "_build/default/bin/raestat_cli.exe" in
  if not (Sys.file_exists exe) then begin
    prerr_endline "perfbench: _build/default/bin/raestat_cli.exe is missing (run perfbench/run.py)";
    exit 2
  end;
  (* A stop signal still reaps the daemons (Loadgen's at_exit). *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigint; Sys.sigterm ];
  let work =
    Filename.concat root
      (Printf.sprintf "perfbench/_work/%s-%d-%d" args.workload args.seed (Unix.getpid ()))
  in
  rm_rf work;
  if Sys.command (Printf.sprintf "mkdir -p %s" (Filename.quote work)) <> 0 then exit 2;
  Sys.chdir work;
  (* Also on a stop signal; runs before Loadgen reaps the daemons. *)
  at_exit (fun () ->
      Sys.chdir root;
      rm_rf work);
  let data = Data.generate ~seed:args.seed ~dir:"." in
  let env = Mix.make_env data in
  if args.trace then
    Layers.run ~exe ~workload:args.workload ~seed:args.seed ~seconds:args.seconds data env
  else begin
    let o =
      E2e.run ~exe ~workload:args.workload ~seed:args.seed ~seconds:args.seconds ~setups data
        env
    in
    let attempted, problems = E2e.report ~workload:args.workload ~seed:args.seed o in
    Reply.emit ~correct:(problems = []) ~attempted ~failed:o.checked.failed (E2e.metrics o)
  end
