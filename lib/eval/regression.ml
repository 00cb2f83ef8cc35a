(* The bench regression gate.  Each emitter decides its gates from its
   typed result and writes them into its document as one "gates" array;
   this module owns only that record, its JSON form and the comparison,
   so no reader here knows any document's layout.

   A gate present in the baseline but missing from the current document
   fails: silently dropping a measurement is how regressions hide.  New
   gates in the current document pass until the baseline is updated. *)

type direction = Higher_better | Lower_better | Exact

type gate = {
  name : string;
  value : float;
  direction : direction;
  tolerance : float;  (* allowed fractional drift in the bad direction *)
}

type status = Pass | Fail of string

type comparison = {
  name : string;
  baseline : float;
  current : float option;  (* None: gate disappeared *)
  status : status;
}

let gate name value direction tolerance = { name; value; direction; tolerance }
let exact name value = gate name value Exact 0.0
let flag name b = exact name (if b then 1.0 else 0.0)

(* --- The "gates" array ------------------------------------------------- *)

let directions = [ (Higher_better, "higher"); (Lower_better, "lower"); (Exact, "exact") ]

let render num gates =
  let q = Simkit.Json_str.quote in
  Simkit.Json_str.arr
    (List.map
       (fun (g : gate) ->
         Simkit.Json_str.obj
           [
             ("name", q g.name);
             ("value", num g.value);
             ("direction", q (List.assoc g.direction directions));
             ("tolerance", num g.tolerance);
           ])
       gates)

let to_json = render Simkit.Json_str.number
let to_json_exact = render Simkit.Json_str.number_exact

(* A null value (how a nan is written) reads back as nan: the comparison
   then fails that gate alone. *)
let gate_of_json item =
  let field key conv = Option.bind (Simkit.Json.member key item) conv in
  let direction =
    Option.bind (field "direction" Simkit.Json.to_string) (fun d ->
        List.find_map (fun (dir, s) -> if s = d then Some dir else None) directions)
  in
  match (field "name" Simkit.Json.to_string, direction, field "tolerance" Simkit.Json.to_float) with
  | Some name, Some direction, Some tolerance ->
      let value = Option.value (field "value" Simkit.Json.to_float) ~default:Float.nan in
      Ok (gate name value direction tolerance)
  | _ -> Error "malformed gate entry"

let of_document doc =
  match Option.bind (Simkit.Json.member "gates" doc) Simkit.Json.to_list with
  | None -> Error "no \"gates\" array"
  | Some items ->
      List.fold_right
        (fun item acc -> Result.bind acc (fun gates -> Result.map (fun g -> g :: gates) (gate_of_json item)))
        items (Ok [])

(* --- Comparison -------------------------------------------------------- *)

let within (b : gate) current =
  match b.direction with
  | Exact -> current = b.value
  | Higher_better -> current >= b.value *. (1.0 -. b.tolerance)
  | Lower_better -> current <= b.value *. (1.0 +. b.tolerance)

(* Direction and tolerance are taken from the baseline side so a tolerance
   edit gates from the commit that updates the baseline. *)
let compare_gates ~baseline ~current =
  List.map
    (fun (b : gate) ->
      let compared current status = { name = b.name; baseline = b.value; current; status } in
      match List.find_opt (fun (c : gate) -> c.name = b.name) current with
      | None -> compared None (Fail "missing")
      | Some c when not (Float.is_finite b.value && Float.is_finite c.value) ->
          compared (Some c.value) (Fail "not a finite number")
      | Some c ->
          compared (Some c.value) (if within b c.value then Pass else Fail "beyond tolerance"))
    baseline

let failures comparisons =
  List.filter (fun c -> match c.status with Fail _ -> true | Pass -> false) comparisons

(* A move inside a band passes, so it is shown: a gain not locked in
   and a drift toward the bound both read here. *)
let change c =
  match c.current with
  | Some v when v <> c.baseline -> Some ((v -. c.baseline) /. Float.abs c.baseline)
  | _ -> None

let print comparisons =
  Prelude.Table.print
    ~header:[ "metric"; "baseline"; "current"; "change"; "status" ]
    (List.map
       (fun c ->
         [
           c.name;
           Prelude.Table.float_cell ~decimals:4 c.baseline;
           (match c.current with
           | Some v -> Prelude.Table.float_cell ~decimals:4 v
           | None -> "MISSING");
           (match change c with Some r -> Printf.sprintf "%+.2f%%" (100.0 *. r) | None -> "");
           (match c.status with Pass -> "ok" | Fail reason -> "FAIL: " ^ reason);
         ])
       comparisons);
  Printf.printf "moved: %d of %d gates\n"
    (List.length (List.filter_map change comparisons))
    (List.length comparisons)
