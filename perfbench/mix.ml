(* The three workloads as request streams.  Each connection runs whole
   rounds: round r of connection c is a fixed function of the seed, c
   and r (the ingest writer also of the ids the daemon acknowledged,
   which are themselves deterministic).  Every request carries the
   means to check its answer: an exact count computed from the
   benchmark's own columns, or the index of a stream predicate whose
   exact count is replayed from the write log at the response's epoch. *)

open Data

type kind =
  | Estimate  (* row-sampled estimate on a static relation *)
  | Census  (* estimate at fraction 1: must be exact *)
  | Pages  (* page-sampled estimate on the .raf relation *)
  | Query  (* algebra chain, root sampling *)
  | Query_opt  (* algebra chain with "optimize": true *)
  | Sql
  | Stream_estimate  (* estimate answered from the maintained sample *)
  | Stream_sql  (* census sql over the streamed relation *)
  | Ingest
  | Rescan

let kinds =
  [ Estimate; Census; Pages; Query; Query_opt; Sql; Stream_estimate; Stream_sql; Ingest; Rescan ]

let kind_name = function
  | Estimate -> "estimate"
  | Census -> "census"
  | Pages -> "pages"
  | Query -> "query"
  | Query_opt -> "query_opt"
  | Sql -> "sql"
  | Stream_estimate -> "stream_estimate"
  | Stream_sql -> "stream_sql"
  | Ingest -> "ingest"
  | Rescan -> "rescan"

let is_read = function Ingest | Rescan -> false | _ -> true

type truth =
  | Count of int Lazy.t  (* static relations: exact count *)
  | Stream_filter of int  (* stream predicate index, counted at the reply's epoch *)
  | Stream_census of int  (* same, epoch identified by the census's population *)
  | No_truth  (* writes *)

type req = { line : string; kind : kind; truth : truth }

(* --- shapes ----------------------------------------------------------- *)

type env = { data : Data.t; sorted : (string, int array) Hashtbl.t }

let make_env data =
  let sorted = Hashtbl.create 8 in
  List.iter
    (fun (table : Data.table) ->
      Array.iteri
        (fun j attr ->
          let col = Array.copy table.cols.(j) in
          Array.sort compare col;
          Hashtbl.replace sorted (table.name ^ "." ^ attr) col)
        table.attrs)
    [ data.suppliers; data.parts; data.orders ];
  { data; sorted }

let filter_attrs = function
  | "orders" | "orders_p" -> [| "o_quantity"; "o_price" |]
  | "suppliers" -> [| "s_region"; "s_balance" |]
  | _ -> [| "p_type"; "p_size" |]

(* Rows of a sorted column below [c] (strictly, or up to and including). *)
let rank sorted ~inclusive c =
  let lo = ref 0 and hi = ref (Array.length sorted) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if sorted.(mid) < c || (inclusive && sorted.(mid) = c) then lo := mid + 1
    else hi := mid
  done;
  !lo

let selectivity sorted f =
  let n = Array.length sorted in
  let k =
    match f.op with
    | Lt -> rank sorted ~inclusive:false f.const
    | Le -> rank sorted ~inclusive:true f.const
    | Gt -> n - rank sorted ~inclusive:true f.const
    | Ge -> n - rank sorted ~inclusive:false f.const
  in
  float_of_int k /. float_of_int n

(* A filter "attr OP const" on [relation] whose selectivity lies in
   [0.1, 0.9]: far from 0 and 1, so a sample in which every (or no)
   tuple qualifies — a zero-width interval that is not a census — has
   negligible probability at the sample sizes used here. *)
let pick_filter env rs relation =
  let base = if relation = "orders_p" then "orders" else relation in
  let attrs = filter_attrs relation in
  let rec attempt () =
    let attr = attrs.(Random.State.int rs (Array.length attrs)) in
    let sorted = Hashtbl.find env.sorted (base ^ "." ^ attr) in
    let q = 0.1 +. Random.State.float rs 0.8 in
    let const = sorted.(int_of_float (q *. float_of_int (Array.length sorted))) in
    let op = [| Lt; Le; Gt; Ge |].(Random.State.int rs 4) in
    let f = { attr; op; const } in
    let s = selectivity sorted f in
    if s >= 0.1 && s <= 0.9 then f else attempt ()
  in
  attempt ()

let count_memo = Hashtbl.create 256

let memo key compute =
  match Hashtbl.find_opt count_memo key with
  | Some v -> v
  | None ->
    let v = compute () in
    Hashtbl.replace count_memo key v;
    v

let filter_truth env relation f =
  Count
    (lazy
      (memo (relation ^ "|" ^ filter_text f) (fun () ->
           count_filter (Data.table env.data relation) f)))

(* Row-sampled fractions: 2000 of 200k orders, 500 of 10k suppliers,
   500 of 20k parts. *)
let fraction_of = function "orders" -> 0.01 | "suppliers" -> 0.05 | _ -> 0.025

let estimate_req env rs ~relation ~seed =
  let f = pick_filter env rs relation in
  {
    line =
      Printf.sprintf {|{"op":"estimate","relation":"%s","where":"%s","fraction":%g,"seed":%d}|}
        relation (filter_text f) (fraction_of relation) seed;
    kind = Estimate;
    truth = filter_truth env relation f;
  }

let census_req env rs ~relation ~seed =
  let f = pick_filter env rs relation in
  {
    line =
      Printf.sprintf {|{"op":"estimate","relation":"%s","where":"%s","fraction":1,"seed":%d}|}
        relation (filter_text f) seed;
    kind = Census;
    truth = filter_truth env relation f;
  }

let pages_req env rs ~m ~seed =
  let f = pick_filter env rs "orders_p" in
  {
    line =
      Printf.sprintf {|{"op":"estimate","relation":"orders_p","where":"%s","pages":%d,"seed":%d}|}
        (filter_text f) m seed;
    kind = Pages;
    truth = filter_truth env "orders" f;
  }

let sql_filter_req env rs ~seed =
  let f = pick_filter env rs "orders" in
  {
    line =
      Printf.sprintf
        {|{"op":"sql","query":"SELECT COUNT(*) FROM orders WHERE %s","fraction":0.01,"seed":%d}|}
        (filter_text f) seed;
    kind = Sql;
    truth = filter_truth env "orders" f;
  }

let sql_join_req env rs ~seed =
  let g = pick_filter env rs "suppliers" in
  {
    line =
      Printf.sprintf
        {|{"op":"sql","query":"SELECT COUNT(*) FROM orders, suppliers WHERE o_supplier = s_key AND %s","fraction":0.1,"seed":%d}|}
        (filter_text g) seed;
    kind = Sql;
    truth =
      Count
        (lazy
          (memo ("join|" ^ filter_text g) (fun () ->
               count_chain env.data ~order_filter:None ~supplier_filter:(Some g)
                 ~with_parts:false)));
  }

(* The three-way chain orders ⋈ suppliers ⋈ parts.  Root sampling needs
   a large fraction for a three-way join to keep any matches (f³ of the
   join survives), the optimizer is asked at the default 0.01. *)
let chain_req env rs ~optimize ~seed =
  let f = pick_filter env rs "orders" in
  let g = pick_filter env rs "suppliers" in
  {
    line =
      Printf.sprintf
        {|{"op":"query","expr":"(select[%s](orders) join[o_supplier = s_key] select[%s](suppliers)) join[o_part = p_key] parts","fraction":%g,"optimize":%b,"seed":%d}|}
        (filter_text f) (filter_text g)
        (if optimize then 0.01 else 0.1)
        optimize seed;
    kind = (if optimize then Query_opt else Query);
    truth =
      Count
        (lazy
          (memo
             ("chain|" ^ filter_text f ^ "|" ^ filter_text g)
             (fun () ->
               count_chain env.data ~order_filter:(Some f) ~supplier_filter:(Some g)
                 ~with_parts:true)));
  }

(* --- workloads -------------------------------------------------------- *)

(* A connection's script: [round r] is round r's requests; [on_reply]
   sees every reply (the ingest writer feeds acknowledged ids back into
   its live set and queues a rescan when the stream asks for one). *)
type script = { round : int -> req list; on_reply : req -> string -> req list }

let no_follow_up _ _ = []

let state_for seed salt = Random.State.make [| seed; salt |]

(* dash-hot: 25 fixed shapes with fixed seeds, refreshed in rounds:
   18 row-sampled estimates, 2 censuses, 3 page samples and 2 sql
   filters.  A round sends every estimate and page shape twice and one
   sql shape (alternating), 47 reads; connection 1 starts half a round
   in.  With many shapes, qerr_p95 is not just the worst shape's error;
   at about 2% of reads, the sql shapes put client.read_p99_ms near the middle
   of their own latencies rather than in their tail. *)
let dash_shapes env seed =
  let rs = state_for seed 1 in
  let s () = Random.State.int rs 1_000_000 in
  let estimates =
    List.concat_map
      (fun (relation, count) ->
        List.init count (fun _ -> estimate_req env rs ~relation ~seed:(s ())))
      [ ("orders", 9); ("suppliers", 6); ("parts", 3) ]
    @ List.init 2 (fun _ -> census_req env rs ~relation:"suppliers" ~seed:(s ()))
  in
  (* 3 × 16 pages ≤ 48 distinct pages: inside the 64-page reader cache. *)
  let pages = List.init 3 (fun _ -> pages_req env rs ~m:16 ~seed:(s ())) in
  let sqls = List.init 2 (fun _ -> sql_filter_req env rs ~seed:(s ())) in
  (estimates @ pages, sqls)

let dash_round (hot, sqls) c r =
  let one = hot @ hot @ [ List.nth sqls ((r + c) mod 2) ] in
  let k = if c = 0 then 0 else List.length one / 2 in
  List.filteri (fun i _ -> i >= k) one @ List.filteri (fun i _ -> i < k) one

let dash_hot env seed =
  let shapes = dash_shapes env seed in
  let warmup = fst shapes @ snd shapes in
  (warmup, Array.init 2 (fun c -> { round = dash_round shapes c; on_reply = no_follow_up }))

(* adhoc-cold: every request has a fresh seed and fresh constants.  A
   round is 10 reads: 6 row-sampled estimates, 1 census of a dimension
   table, 2 page-sampled estimates over 24 of 782 pages, then one of
   four heavier reads in turn (connection 1 two rounds along): a sql
   filter, an optimized chain, a sql join, a root-sampled chain.  Short
   rounds keep the tail of a slice, in which only one connection is
   still finishing its round, short. *)
let adhoc_round env seed c r =
  let rs = state_for seed (1000 + (c * 1_000_003) + r) in
  let s () = 1 + Random.State.int rs 1_000_000_000 in
  let relation () =
    match Random.State.int rs 4 with 0 | 1 -> "orders" | 2 -> "suppliers" | _ -> "parts"
  in
  let block =
    List.init 6 (fun _ -> estimate_req env rs ~relation:(relation ()) ~seed:(s ()))
    @ [ census_req env rs ~relation:(if Random.State.bool rs then "suppliers" else "parts")
          ~seed:(s ()) ]
    @ List.init 2 (fun _ -> pages_req env rs ~m:24 ~seed:(s ()))
  in
  let heavy =
    match (r + (2 * c)) mod 4 with
    | 0 -> sql_filter_req env rs ~seed:(s ())
    | 1 -> chain_req env rs ~optimize:true ~seed:(s ())
    | 2 -> sql_join_req env rs ~seed:(s ())
    | _ -> chain_req env rs ~optimize:false ~seed:(s ())
  in
  block @ [ heavy ]

(* Nothing is worth warming for fresh requests: set-up ends with one
   ping once the catalog is loaded. *)
let adhoc_cold env seed =
  let warmup = [ { line = {|{"op":"ping"}|}; kind = Estimate; truth = No_truth } ] in
  (warmup, Array.init 2 (fun c -> { round = adhoc_round env seed c; on_reply = no_follow_up }))

(* --- ingest-mixed ----------------------------------------------------- *)

(* The writer's log, from which the exact count of every stream
   predicate is replayed at any epoch. *)
type batch = {
  epoch : int;  (* after the batch *)
  population : int;
  first_id : int;  (* ids are sequential: tuple k got first_id + k *)
  tuples : int array array;
  deletes : int array;
}

type write_log = {
  predicates : filter array;
  mutable start : int * int;  (* (epoch, population) once orders is a stream *)
  mutable batches : batch list;  (* newest first *)
  mutable rescans : int;
}

let inserts_per_batch = 60
let deletes_per_batch = 40

let tuple_json (o : int array) =
  Printf.sprintf {|{"o_key":%d,"o_supplier":%d,"o_part":%d,"o_quantity":%d,"o_price":%d}|}
    o.(0) o.(1) o.(2) o.(3) o.(4)

(* Ingest batches over a live set whose ids start as 0 .. base_rows-1.
   [next ()] is the next batch: 60 new tuples (keys from base_rows on)
   and 40 deletes of live ids (fewer while fewer are live).  [acked
   first_id] adds that batch's inserts, numbered from the first id the
   stream gave them, to the live set. *)
type batches = { next : unit -> int array array * int array; acked : int -> unit }

let batches seed ~base_rows =
  let live = ref (Array.init (max base_rows 64) Fun.id) and n_live = ref base_rows in
  let wrs = state_for seed 3 in
  let rng = Sampling.Rng.create ~seed:(seed + 17) () in
  let open Workload in
  let supplier_fk = Dist.compile (Dist.Zipf { n_values = sizes.suppliers; skew = 0.8 }) in
  let part_fk = Dist.compile (Dist.Zipf { n_values = sizes.parts; skew = 0.5 }) in
  let quantity = Dist.compile (Dist.Exponential { mean = 8. }) in
  let price = Dist.compile (Dist.Normal { mean = 120.; stddev = 60. }) in
  let n_inserted = ref 0 in
  let next () =
    let tuples =
      Array.init inserts_per_batch (fun k ->
          [|
            base_rows + !n_inserted + k;
            supplier_fk rng;
            part_fk rng;
            1 + quantity rng;
            max 1 (price rng);
          |])
    in
    let deletes =
      Array.init (min deletes_per_batch !n_live) (fun _ ->
          let j = Random.State.int wrs !n_live in
          let id = !live.(j) in
          !live.(j) <- !live.(!n_live - 1);
          decr n_live;
          id)
    in
    n_inserted := !n_inserted + inserts_per_batch;
    (tuples, deletes)
  in
  let acked first_id =
    if !n_live + inserts_per_batch > Array.length !live then begin
      let bigger = Array.make (2 * Array.length !live) 0 in
      Array.blit !live 0 bigger 0 !n_live;
      live := bigger
    end;
    for k = 0 to inserts_per_batch - 1 do
      !live.(!n_live) <- first_id + k;
      incr n_live
    done
  in
  { next; acked }

(* A writer of [batches] into [relation]: one batch a round, and a
   rescan after any reply that reports needs_rescan. *)
let writer seed ~relation ~base_rows ~log =
  let b = batches seed ~base_rows in
  let pending = Queue.create () in
  let round _r =
    let tuples, deletes = b.next () in
    Queue.push (tuples, deletes) pending;
    [
      {
        line =
          Printf.sprintf {|{"op":"ingest","relation":"%s","insert":[%s],"delete":[%s]}|}
            relation
            (String.concat "," (Array.to_list (Array.map tuple_json tuples)))
            (String.concat "," (Array.to_list (Array.map string_of_int deletes)));
        kind = Ingest;
        truth = No_truth;
      };
    ]
  in
  let rescan_req =
    {
      line = Printf.sprintf {|{"op":"rescan","relation":"%s"}|} relation;
      kind = Rescan;
      truth = No_truth;
    }
  in
  let on_reply req reply =
    let json = match Serve.Json.parse reply with Ok j -> j | Error _ -> Serve.Json.Null in
    let result = Option.value ~default:Serve.Json.Null (Serve.Json.member "result" json) in
    let int name = Option.value ~default:(-1) (Serve.Json.int_field result name) in
    match req.kind with
    | Ingest ->
      let tuples, deletes = Queue.pop pending in
      let first_id = int "first_id" in
      if first_id >= 0 then b.acked first_id;
      log.batches <-
        { epoch = int "epoch"; population = int "population"; first_id; tuples; deletes }
        :: log.batches;
      if Serve.Json.member "needs_rescan" result = Some (Serve.Json.Bool true) then
        [ rescan_req ]
      else []
    | Rescan ->
      log.rescans <- log.rescans + 1;
      []
    | _ -> []
  in
  { round; on_reply }

let new_log predicates = { predicates; start = (-1, -1); batches = []; rescans = 0 }

(* ingest-mixed: connection 0 streams batches into orders (converted
   during set-up to a maintained stream with a 4096-tuple backing
   sample); connection 1 reads rounds of 36 estimates over twelve
   fixed predicates, answered from the maintained sample, and one
   census sql over the stream. *)
let ingest_mixed env seed =
  let rs = state_for seed 2 in
  let predicates = Array.init 12 (fun _ -> pick_filter env rs "orders") in
  let census_predicates = Array.init 2 (fun _ -> pick_filter env rs "orders") in
  let log = new_log (Array.append predicates census_predicates) in
  let base_rows = cardinality env.data.orders in
  let reader_round _r =
    List.init 36 (fun i ->
        let p = i mod Array.length predicates in
        {
          line =
            Printf.sprintf {|{"op":"estimate","relation":"orders","where":"%s"}|}
              (filter_text predicates.(p));
          kind = Stream_estimate;
          truth = Stream_filter p;
        })
    @ [
        (let p = Random.State.int rs (Array.length census_predicates) in
         {
           line =
             Printf.sprintf
               {|{"op":"sql","query":"SELECT COUNT(*) FROM orders WHERE %s","fraction":1,"groups":1,"seed":1}|}
               (filter_text census_predicates.(p));
           kind = Stream_sql;
           truth = Stream_census (Array.length predicates + p);
         });
      ]
  in
  (* Set-up converts orders to a maintained stream with an empty batch. *)
  let warmup =
    [
      {
        line = {|{"op":"ingest","relation":"orders","insert":[],"delete":[],"capacity":4096}|};
        kind = Ingest;
        truth = No_truth;
      };
    ]
  in
  ( warmup,
    [|
      writer seed ~relation:"orders" ~base_rows ~log;
      { round = reader_round; on_reply = no_follow_up };
    |],
    log )
