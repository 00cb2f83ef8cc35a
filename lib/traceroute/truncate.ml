type strategy =
  | Full
  | Every_k of int
  | Last_k of int
  | First_k of int
  | Min_degree of int

let check_param name k = if k < 1 then invalid_arg ("Truncate: " ^ name ^ " parameter must be >= 1")

(* The full strategy keeps every hop, so it returns the path itself. *)
let apply ?graph strategy (path : Path.t) =
  let n = Array.length path.hops in
  match strategy with
  | Full -> path
  | _ when n = 0 -> path
  | strategy ->
      let keep = Array.make n false in
      keep.(0) <- true;
      keep.(n - 1) <- true;
      (match strategy with
      | Full -> ()
      | Every_k k ->
          check_param "Every_k" k;
          let i = ref 0 in
          while !i < n do
            keep.(!i) <- true;
            i := !i + k
          done
      | Last_k k ->
          check_param "Last_k" k;
          for i = max 0 (n - k) to n - 1 do
            keep.(i) <- true
          done
      | First_k k ->
          check_param "First_k" k;
          for i = 0 to min (k - 1) (n - 1) do
            keep.(i) <- true
          done
      | Min_degree threshold ->
          check_param "Min_degree" threshold;
          let g =
            match graph with
            | Some g -> g
            | None -> invalid_arg "Truncate.apply: Min_degree needs ~graph"
          in
          for i = 0 to n - 1 do
            match path.hops.(i) with
            | Path.Known r -> if Topology.Graph.degree g r >= threshold then keep.(i) <- true
            | Path.Anonymous -> ()
          done);
      let kept = ref [] in
      for i = n - 1 downto 0 do
        if keep.(i) then kept := path.hops.(i) :: !kept
      done;
      { path with hops = Array.of_list !kept }

let probe_cost strategy ~full_hops =
  if full_hops <= 0 then 0
  else
    match strategy with
    | Full | Min_degree _ -> full_hops
    | Every_k k ->
        check_param "Every_k" k;
        (* Positions k, 2k, ... <= full_hops, plus the final hop if it is not
           already on the stride (position 0 is the source: free). *)
        let strided = full_hops / k in
        if full_hops mod k = 0 then strided else strided + 1
    | Last_k k | First_k k ->
        check_param "probe_cost" k;
        min k full_hops

let describe = function
  | Full -> "full"
  | Every_k k -> Printf.sprintf "every-%d" k
  | Last_k k -> Printf.sprintf "last-%d" k
  | First_k k -> Printf.sprintf "first-%d" k
  | Min_degree d -> Printf.sprintf "core-deg>=%d" d
