type problem = {
  objective : Vec.t -> float;
  inequality : (Vec.t -> float) list;
  lower : Vec.t;
  upper : Vec.t;
}

type solution = { x : Vec.t; f : float; feasible : bool }

let violation problem x =
  let box =
    let acc = ref 0. in
    Array.iteri
      (fun i xi ->
        acc := !acc +. Float.max 0. (problem.lower.(i) -. xi);
        acc := !acc +. Float.max 0. (xi -. problem.upper.(i)))
      x;
    !acc
  in
  List.fold_left (fun acc g -> acc +. Float.max 0. (g x)) box problem.inequality

let penalized problem ~weight x =
  let v = violation problem x in
  problem.objective x +. (weight *. v *. v)

let is_feasible problem x = violation problem x <= 1e-6

exception Non_finite_start of float

(* [f] that raises [Non_finite_start] when its first value is not
   finite: that first call is Nelder–Mead's f(x0), so the seed is
   dropped after the one evaluation the search would make anyway. *)
let finite_start f =
  let first = ref true in
  fun x ->
    let v = f x in
    if !first then begin
      first := false;
      if not (Float.is_finite v) then raise (Non_finite_start v)
    end;
    v

let descend ~start ?(rounds = 4) ?options problem x0 =
  let x0 = Vec.clamp ~lo:problem.lower ~hi:problem.upper x0 in
  let rec escalate round x =
    if round >= rounds then x
    else
      let weight = 1e3 *. (100. ** float_of_int round) in
      let f = penalized problem ~weight in
      let result =
        Nelder_mead.minimize ?options ~f:(if round = 0 then start f else f) ~x0:x ()
      in
      escalate (round + 1) result.x
  in
  let x = escalate 0 x0 in
  let x = Vec.clamp ~lo:problem.lower ~hi:problem.upper x in
  { x; f = problem.objective x; feasible = is_feasible problem x }

let minimize ?rounds ?options problem x0 = descend ~start:Fun.id ?rounds ?options problem x0

let multi_start ?(starts = 8) ?rounds ?options ~rng problem =
  let n = Array.length problem.lower in
  let random_point () =
    Array.init n (fun i ->
        let lo = problem.lower.(i) and hi = problem.upper.(i) in
        if hi > lo then lo +. Rng.float rng (hi -. lo) else lo)
  in
  let centre =
    Array.init n (fun i -> (problem.lower.(i) +. problem.upper.(i)) /. 2.)
  in
  let seeds = centre :: List.init starts (fun _ -> random_point ()) in
  let descents =
    List.map
      (fun seed ->
        match descend ~start:finite_start ?rounds ?options problem seed with
        | sol -> Ok sol
        | exception Non_finite_start f ->
          let x = Vec.clamp ~lo:problem.lower ~hi:problem.upper seed in
          Error { x; f; feasible = is_feasible problem x })
      seeds
  in
  let better a b =
    match (a.feasible, b.feasible) with
    | true, false -> a
    | false, true -> b
    | _ -> if a.f <= b.f then a else b
  in
  match List.filter_map Result.to_option descents with
  | first :: rest -> List.fold_left better first rest
  | [] -> (
    (* every seed scored non-finite: the first one, as a strict [<]
       fold keeps it over equal or unordered scores *)
    match List.filter_map (function Ok _ -> None | Error s -> Some s) descents with
    | first :: rest -> List.fold_left (fun b s -> if s.f < b.f then s else b) first rest
    | [] -> assert false)
