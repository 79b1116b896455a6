(* The benchmark's catalog: Workload.Tpc_mini scaled up, generated from
   the run's seed, written as CSV (the fact table also packed to .raf),
   and kept here as plain int columns.  Every exact count the benchmark
   checks an answer against is computed from these columns with plain
   loops, never through the estimator's own exact paths. *)

type table = { name : string; attrs : string array; cols : int array array }

type t = {
  suppliers : table;
  parts : table;
  orders : table;
  bindings : (string * string) list;  (* relation name → file, for the daemon *)
}

let sizes = { Workload.Tpc_mini.suppliers = 10_000; parts = 20_000; orders = 200_000 }

(* Tuples per .raf page: the packer's default, so orders.raf has
   ceil(200000 / 256) = 782 pages against a 64-page reader cache. *)
let page_rows = Relational.Pagefile.default_page_capacity

let table_of_relation name relation =
  let schema = Relational.Relation.schema relation in
  let attrs =
    Array.of_list
      (List.map
         (fun (a : Relational.Schema.attribute) -> a.name)
         (Relational.Schema.attributes schema))
  in
  let tuples = Relational.Relation.tuples relation in
  let cols =
    Array.mapi
      (fun j _ ->
        Array.map
          (fun t ->
            match Relational.Tuple.get t j with
            | Relational.Value.Int v -> v
            | _ -> failwith "perfbench: Tpc_mini produced a non-int value")
          tuples)
      attrs
  in
  { name; attrs; cols }

let column table attr =
  let rec find j =
    if j = Array.length table.attrs then
      failwith (Printf.sprintf "perfbench: %s has no column %s" table.name attr)
    else if table.attrs.(j) = attr then table.cols.(j)
    else find (j + 1)
  in
  find 0

let cardinality table = Array.length table.cols.(0)

let write_csv path table =
  let oc = open_out_bin path in
  output_string oc
    (String.concat "," (Array.to_list (Array.map (fun a -> a ^ ":int") table.attrs)));
  output_char oc '\n';
  let buffer = Buffer.create 64 in
  for i = 0 to cardinality table - 1 do
    Buffer.clear buffer;
    Array.iteri
      (fun j col ->
        if j > 0 then Buffer.add_char buffer ',';
        Buffer.add_string buffer (string_of_int col.(i)))
      table.cols;
    Buffer.add_char buffer '\n';
    Buffer.output_buffer oc buffer
  done;
  close_out oc

(* Files land in [dir] (relative to the working directory). *)
let generate ~seed ~dir =
  let catalog = Workload.Tpc_mini.catalog (Sampling.Rng.create ~seed ()) ~sizes () in
  let table name = table_of_relation name (Relational.Catalog.find catalog name) in
  let suppliers = table "suppliers" and parts = table "parts" and orders = table "orders" in
  let path file = Filename.concat dir file in
  List.iter (fun t -> write_csv (path (t.name ^ ".csv")) t) [ suppliers; parts; orders ];
  ignore
    (Relational.Pagefile.pack_csv ~page_capacity:page_rows ~src:(path "orders.csv")
       ~dst:(path "orders.raf") ());
  {
    suppliers;
    parts;
    orders;
    bindings =
      [
        ("suppliers", path "suppliers.csv");
        ("parts", path "parts.csv");
        ("orders", path "orders.csv");
        ("orders_p", path "orders.raf");
      ];
  }

let table t = function
  | "suppliers" -> t.suppliers
  | "parts" -> t.parts
  | "orders" | "orders_p" -> t.orders
  | other -> failwith (Printf.sprintf "perfbench: unknown relation %s" other)

(* --- exact counts ----------------------------------------------------- *)

type op = Lt | Le | Gt | Ge

let op_symbol = function Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let holds op v c =
  match op with Lt -> v < c | Le -> v <= c | Gt -> v > c | Ge -> v >= c

(* A filter "attr OP const" over one table. *)
type filter = { attr : string; op : op; const : int }

let filter_text f = Printf.sprintf "%s %s %d" f.attr (op_symbol f.op) f.const

let count_filter table f =
  let col = column table f.attr in
  let n = ref 0 in
  Array.iter (fun v -> if holds f.op v f.const then incr n) col;
  !n

(* |σ_of(orders) ⋈ σ_sf(suppliers) ⋈ parts| from per-key tallies: how
   many qualifying suppliers (resp. parts) carry each key, summed over
   the qualifying orders' foreign keys. *)
let tally table key_attr filter =
  let keys = column table key_attr in
  let pass =
    match filter with
    | None -> fun _ -> true
    | Some f ->
      let col = column table f.attr in
      fun i -> holds f.op col.(i) f.const
  in
  let tbl = Hashtbl.create (Array.length keys) in
  Array.iteri
    (fun i k ->
      if pass i then
        Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    keys;
  fun k -> Option.value ~default:0 (Hashtbl.find_opt tbl k)

let count_chain t ~order_filter ~supplier_filter ~with_parts =
  let smult = tally t.suppliers "s_key" supplier_filter in
  let pmult = if with_parts then tally t.parts "p_key" None else fun _ -> 1 in
  let os = column t.orders "o_supplier" and opart = column t.orders "o_part" in
  let pass =
    match order_filter with
    | None -> fun _ -> true
    | Some f ->
      let col = column t.orders f.attr in
      fun i -> holds f.op col.(i) f.const
  in
  let n = ref 0 in
  for i = 0 to Array.length os - 1 do
    if pass i then n := !n + (smult os.(i) * pmult opart.(i))
  done;
  !n
