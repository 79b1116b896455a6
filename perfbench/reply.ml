(* Statistics, and reading the daemon's replies and its metrics op. *)

(* --- statistics ------------------------------------------------------- *)

let percentile values p =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    (* nearest rank *)
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median values = percentile values 0.5

let q_error ~point ~truth =
  let p = Float.max point 1. and t = Float.max (float_of_int truth) 1. in
  Float.max (p /. t) (t /. p)

(* --- reading replies -------------------------------------------------- *)

module J = Serve.Json

let parse reply = match J.parse reply with Ok json -> json | Error _ -> J.Null
let ok json = J.member "ok" json = Some (J.Bool true)
let result json = Option.value ~default:J.Null (J.member "result" json)

let text json =
  match J.member "text" (result json) with Some (J.Str s) -> s | _ -> ""

let point json =
  match J.member "point" (result json) with
  | Some (J.Float f) -> f
  | Some (J.Int i) -> float_of_int i
  | _ -> nan

let result_int json name = Option.value ~default:(-1) (J.int_field (result json) name)

let find_line prefix text =
  List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' text)

(* The user-visible answer: "estimated COUNT: N" in the text. *)
let rendered_count text =
  match find_line "estimated COUNT: " text with
  | Some line -> ( try Scanf.sscanf line "estimated COUNT: %d" Option.some with _ -> None)
  | None -> None

(* "95% CI: [lo, hi]" *)
let ci text =
  match find_line "95% CI: [" text with
  | Some line -> (
    try Scanf.sscanf line "95%% CI: [%f, %f]" (fun lo hi -> Some (lo, hi)) with _ -> None)
  | None -> None

(* "... N tuples read)" of query/sql text *)
let tuples_read text =
  match find_line "estimated COUNT:" text with
  | Some line -> (
    match String.index_opt line '(' with
    | Some i -> (
      try
        Scanf.sscanf
          (String.sub line i (String.length line - i))
          "(%s@, %d tuples read)"
          (fun _ n -> Some n)
      with _ -> None)
    | None -> None)
  | None -> None

(* --- the daemon's own accounting -------------------------------------- *)

(* Every integer in the metrics reply, by dotted path. *)
let rec flatten prefix json acc =
  match json with
  | J.Int v -> (prefix, v) :: acc
  | J.Obj fields ->
    List.fold_left
      (fun acc (k, v) -> flatten (if prefix = "" then k else prefix ^ "." ^ k) v acc)
      acc fields
  | _ -> acc

let metrics_snapshot conn =
  let reply, _ = Loadgen.call conn {|{"op":"metrics"}|} in
  flatten "" (result (parse reply)) []

let diff_counters after before =
  List.rev_map
    (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k before)))
    after
  |> List.sort compare

let counter diff name = Option.value ~default:0 (List.assoc_opt name diff)

(* --- the result line -------------------------------------------------- *)

let emit ~correct ~attempted ~failed metrics =
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, value) ->
            Printf.sprintf {|"%s": {"value": %.10g, "unit": "%s"}|} name value unit)
          metrics));
  print_newline ()
