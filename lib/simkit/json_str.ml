(* Minimal JSON string building shared by the span and metrics exporters.
   The repo has no JSON library dependency; emitted documents are plain
   objects/arrays of numbers and strings, so a string escaper and a
   total float printer cover everything. *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let quote s = "\"" ^ escape s ^ "\""

(* JSON has no nan/infinity literals; render them as null so the document
   always parses (a never-observed quantile is nan by contract). *)
let number v =
  if Float.is_nan v then "null"
  else if v = infinity then "null"
  else if v = neg_infinity then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

(* The fewest significant digits, 15 to 17, that read back as [v]. *)
let number_exact v =
  if not (Float.is_finite v) then "null"
  else
    let fits digits =
      let s = Printf.sprintf "%.*g" digits v in
      if float_of_string s = v then Some s else None
    in
    match List.find_map fits [ 15; 16 ] with Some s -> s | None -> Printf.sprintf "%.17g" v

let number_opt = function None -> "null" | Some v -> number v

(* Object/array assembly from already-rendered member values: the one
   place the  {"k": v, ...}  punctuation lives, instead of per-exporter
   Printf templates in Span, Flight_recorder and Export. *)
let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> quote k ^ ": " ^ v) fields) ^ "}"

let arr items = "[" ^ String.concat ", " items ^ "]"
