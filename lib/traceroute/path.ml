type hop = Known of Topology.Graph.node | Anonymous
type t = { src : Topology.Graph.node; dst : Topology.Graph.node; hops : hop array }

let of_routers ~src ~dst routers =
  (match routers with
  | first :: _ when first = src -> ()
  | _ -> invalid_arg "Path.of_routers: route must start at src");
  { src; dst; hops = Array.of_list (List.map (fun r -> Known r) routers) }

let anonymous_count t =
  Array.fold_left (fun acc h -> match h with Anonymous -> acc + 1 | Known _ -> acc) 0 t.hops

(* Count, then fill: no intermediate list. *)
let known_routers t =
  let routers = Array.make (Array.length t.hops - anonymous_count t) 0 and j = ref 0 in
  for i = 0 to Array.length t.hops - 1 do
    match t.hops.(i) with
    | Known r ->
        routers.(!j) <- r;
        incr j
    | Anonymous -> ()
  done;
  routers

let hop_count t = max 0 (Array.length t.hops - 1)

let is_complete t =
  let n = Array.length t.hops in
  n > 0 && (match t.hops.(n - 1) with Known r -> r = t.dst | Anonymous -> false)

let pp ppf t =
  let pp_hop ppf = function
    | Known r -> Format.pp_print_int ppf r
    | Anonymous -> Format.pp_print_char ppf '*'
  in
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " -> ") pp_hop ppf
    (Array.to_list t.hops)

let equal a b = a.src = b.src && a.dst = b.dst && a.hops = b.hops
