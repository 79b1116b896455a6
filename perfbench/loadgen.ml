(* The daemon as a child process, and closed-loop clients over its
   Unix socket.  All connections are driven from one thread with
   select: each sends its next request only once the reply to the last
   one has arrived. *)

(* Seconds on the monotonic clock, with nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* --- the daemon ------------------------------------------------------- *)

type daemon = { pid : int; out : Unix.file_descr; mutable reaped : bool }

let live = ref []

let reap d =
  if not d.reaped then begin
    let rec wait tries =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when tries > 0 ->
        Unix.sleepf 0.01;
        wait (tries - 1)
      | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait tries
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    wait 1000;
    d.reaped <- true;
    (try Unix.close d.out with Unix.Unix_error _ -> ());
    live := List.filter (fun x -> x != d) !live
  end

let () = at_exit (fun () -> List.iter reap !live)

(* Spawn [exe serve] and block until its ready line; the daemon's
   stdout stays on a pipe we never drain (it prints one more line, at
   exit), its stderr is ours. *)
let spawn ~exe ~socket ~workers bindings =
  let args =
    [ exe; "serve"; "--socket"; socket; "--workers"; string_of_int workers ]
    @ List.concat_map (fun (name, path) -> [ "--rel"; name ^ "=" ^ path ]) bindings
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin w Unix.stderr in
  Unix.close w;
  let d = { pid; out = r; reaped = false } in
  live := d :: !live;
  let buf = Buffer.create 128 and chunk = Bytes.create 256 in
  let deadline = now () +. 120. in
  let rec wait_ready () =
    if String.contains (Buffer.contents buf) '\n' then ()
    else if now () > deadline then failwith "perfbench: daemon not ready after 120 s"
    else
      match Unix.select [ r ] [] [] 1.0 with
      | [], _, _ -> wait_ready ()
      | _ -> (
        match Unix.read r chunk 0 (Bytes.length chunk) with
        | 0 -> failwith "perfbench: daemon exited before its ready line"
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          wait_ready ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_ready ()
  in
  wait_ready ();
  if not (String.starts_with ~prefix:"raestat serve: listening" (Buffer.contents buf))
  then failwith ("perfbench: unexpected daemon output: " ^ Buffer.contents buf);
  d

(* VmHWM of the daemon, in MB. *)
let peak_rss_mb d =
  let ic = open_in (Printf.sprintf "/proc/%d/status" d.pid) in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  let v = scan () in
  close_in ic;
  v

(* The machine's CPU time since boot in ticks, from the first line of
   /proc/stat: [| busy; idle; stolen by the host |]. *)
let machine_ticks () =
  let ic = open_in "/proc/stat" in
  let line = input_line ic in
  close_in ic;
  match List.filter (( <> ) "") (String.split_on_char ' ' line) with
  | _cpu :: user :: nice :: system :: idle :: iowait :: irq :: softirq :: steal :: _ ->
    let i = int_of_string in
    [| i user + i nice + i system + i irq + i softirq; i idle + i iowait; i steal |]
  | _ -> [| 0; 0; 0 |]

(* --- connections ------------------------------------------------------ *)

type conn = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  { fd; buf = Buffer.create 4096; chunk = Bytes.create 65536 }

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

let rec write_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off

let send conn line = write_all conn.fd (line ^ "\n") 0

(* Read what is available; the complete line if one has arrived. *)
let pump conn =
  match Unix.read conn.fd conn.chunk 0 (Bytes.length conn.chunk) with
  | 0 -> failwith "perfbench: daemon closed a connection"
  | n ->
    Buffer.add_subbytes conn.buf conn.chunk 0 n;
    let s = Buffer.contents conn.buf in
    if s.[String.length s - 1] = '\n' then begin
      Buffer.clear conn.buf;
      Some (String.sub s 0 (String.length s - 1))
    end
    else None
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> None

let rec recv conn = match pump conn with Some line -> line | None -> recv conn

(* One synchronous round trip: (reply, seconds). *)
let call conn line =
  let t0 = now () in
  send conn line;
  let reply = recv conn in
  (reply, now () -. t0)

(* --- the closed loop -------------------------------------------------- *)

type record = {
  req : Mix.req;
  latency : float;  (* seconds, send to full reply line *)
  finished : float;  (* seconds from the loop's start to the reply *)
  reply : string;
}

(* Drive every connection through whole rounds of its script until
   [seconds] have passed; a connection past the deadline finishes its
   round, then stops.  [round] holds each connection's next round, so
   a later call on the same array goes on where this one stopped.
   Returns the records (in reply order) and the window's length. *)
let closed_loop ?round conns (scripts : Mix.script array) ~seconds =
  let n = Array.length conns in
  let round = match round with Some r -> r | None -> Array.make n 0 in
  let queue = Array.make n [] in
  let inflight = Array.make n None in
  let records = ref [] in
  let start = now () in
  let deadline = start +. seconds in
  let next c =
    if queue.(c) = [] && now () < deadline then begin
      queue.(c) <- scripts.(c).round round.(c);
      round.(c) <- round.(c) + 1
    end;
    match queue.(c) with
    | [] -> inflight.(c) <- None
    | req :: rest ->
      queue.(c) <- rest;
      let t = now () in
      send conns.(c) req.Mix.line;
      inflight.(c) <- Some (req, t)
  in
  for c = 0 to n - 1 do
    next c
  done;
  let active () =
    List.filter_map
      (fun c -> Option.map (fun _ -> conns.(c).fd) inflight.(c))
      (List.init n Fun.id)
  in
  let rec loop () =
    match active () with
    | [] -> ()
    | fds ->
      let readable, _, _ =
        try Unix.select fds [] [] 5.0
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun fd ->
          let c = ref 0 in
          Array.iteri (fun i conn -> if conn.fd == fd then c := i) conns;
          let c = !c in
          match pump conns.(c) with
          | None -> ()
          | Some reply ->
            let t = now () in
            let req, sent = Option.get inflight.(c) in
            records := { req; latency = t -. sent; finished = t -. start; reply } :: !records;
            queue.(c) <- scripts.(c).on_reply req reply @ queue.(c);
            next c)
        readable;
      loop ()
  in
  loop ();
  let finish = now () in
  (List.rev !records, finish -. start)
