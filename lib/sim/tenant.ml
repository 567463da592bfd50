type spec = {
  name : string;
  weight : int;
  share : float;
  slo_p99 : float option;
  class_weights : int array;
}

let spec ?(weight = 1) ?(share = 1.) ?slo_p99 ?(class_weights = [||]) name =
  if name = "" then invalid_arg "Tenant.spec: empty name";
  if weight < 1 then invalid_arg "Tenant.spec: weight must be >= 1";
  if share <= 0. || not (Float.is_finite share) then
    invalid_arg "Tenant.spec: share must be finite and > 0";
  (match slo_p99 with
  | Some s when s <= 0. -> invalid_arg "Tenant.spec: slo must be > 0"
  | _ -> ());
  if Array.exists (fun w -> w < 1) class_weights then
    invalid_arg "Tenant.spec: class weights must be >= 1";
  { name; weight; share; slo_p99; class_weights = Array.copy class_weights }

type set = {
  t_specs : spec array;  (* canonical: sorted by name, names unique *)
  t_cumulative : float array;  (* normalized cumulative shares, last = 1 *)
  t_cum_bits : int array;
      (* the same edges scaled to the 30-bit integer lattice, last =
         2^30 — lets the per-arrival draw stay on [Rng.bits], which
         (unlike [Rng.float]) allocates nothing *)
  t_prob : int array;
      (* Walker alias table: bucket [j] accepts itself when the low
         draw bits fall under [t_prob.(j)] (threshold on [0, 2^30]) *)
  t_alias : int array;  (* ... and redirects to [t_alias.(j)] otherwise *)
}

let bits_range = 1 lsl 30

let set specs =
  if specs = [] then invalid_arg "Tenant.set: no tenants";
  let arr = Array.of_list specs in
  Array.sort (fun a b -> String.compare a.name b.name) arr;
  Array.iteri
    (fun i s ->
      if i > 0 && String.equal arr.(i - 1).name s.name then
        invalid_arg
          (Printf.sprintf "Tenant.set: duplicate tenant name %S" s.name))
    arr;
  let total = Array.fold_left (fun acc s -> acc +. s.share) 0. arr in
  let cumulative = Array.make (Array.length arr) 0. in
  let running = ref 0. in
  Array.iteri
    (fun i s ->
      running := !running +. (s.share /. total);
      cumulative.(i) <- !running)
    arr;
  (* Pin the last edge so a draw of 1 − ε can never fall off the end of
     the distribution whatever the rounding of the partial sums. *)
  cumulative.(Array.length arr - 1) <- 1.;
  let cum_bits =
    Array.map (fun c -> int_of_float (c *. float_of_int bits_range)) cumulative
  in
  cum_bits.(Array.length arr - 1) <- bits_range;
  (* Walker alias table over the lattice masses. A binary search over
     the cumulative edges costs log₂ n data-dependent branches per
     draw, and on random input every one is a coin-flip the branch
     predictor loses — ~4× the arithmetic cost at n = 16. The alias
     table replaces that with one multiply, two loads and a single
     compare. Construction is the classic two-stack split of buckets
     below/above the mean, in exact integer arithmetic (masses scaled
     by [n] so the mean is exactly [bits_range], and the leftovers
     land on it exactly). *)
  let n = Array.length arr in
  let prob = Array.make n bits_range in
  let alias = Array.init n (fun i -> i) in
  let w =
    Array.init n (fun i ->
        n * (cum_bits.(i) - if i = 0 then 0 else cum_bits.(i - 1)))
  in
  let small = ref [] and large = ref [] in
  for i = n - 1 downto 0 do
    if w.(i) < bits_range then small := i :: !small else large := i :: !large
  done;
  let rec pair small large =
    match (small, large) with
    | l :: small, g :: large ->
        prob.(l) <- w.(l);
        alias.(l) <- g;
        w.(g) <- w.(g) - (bits_range - w.(l));
        if w.(g) < bits_range then pair (g :: small) large
        else pair small (g :: large)
    | rest, [] | [], rest -> List.iter (fun i -> prob.(i) <- bits_range) rest
  in
  pair !small !large;
  {
    t_specs = arr;
    t_cumulative = cumulative;
    t_cum_bits = cum_bits;
    t_prob = prob;
    t_alias = alias;
  }

let uniform ?(prefix = "vf") n =
  if n < 1 then invalid_arg "Tenant.uniform: need at least one tenant";
  set (List.init n (fun i -> spec (Printf.sprintf "%s%04d" prefix i)))

let count t = Array.length t.t_specs
let specs t = Array.copy t.t_specs
let weights t = Array.map (fun s -> s.weight) t.t_specs

let shares t =
  let total = Array.fold_left (fun acc s -> acc +. s.share) 0. t.t_specs in
  Array.map (fun s -> s.share /. total) t.t_specs

(* Per-tenant class-WRR rows, padded to a uniform [classes] width for
   {!Ip_node.create_hierarchical}: a tenant declaring fewer classes (or
   none) gets weight 1 for the remainder. *)
let class_weight_rows t ~classes =
  if classes < 1 then invalid_arg "Tenant.class_weight_rows: classes < 1";
  Array.map
    (fun s ->
      Array.init classes (fun c ->
          if c < Array.length s.class_weights then s.class_weights.(c) else 1))
    t.t_specs

(* Binary search for the first cumulative edge strictly above [u]; the
   loop touches only ints and float-array loads, so the per-arrival
   tenant draw allocates nothing. *)
let index_of t u =
  let c = t.t_cumulative in
  let lo = ref 0 and hi = ref (Array.length c - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if c.(mid) <= u then lo := mid + 1 else hi := mid
  done;
  !lo

(* The simulator's per-arrival path: O(1) alias-table lookup on a
   [Rng.bits] draw. [u * n] splits the 30-bit draw into a bucket index
   (high bits) and an acceptance threshold (low bits) — one shared
   draw, with per-tenant probabilities accurate to n·2^-30. *)
let[@inline] index_of_bits t u =
  let m = u * Array.length t.t_specs in
  let j = m lsr 30 in
  if m land (bits_range - 1) < t.t_prob.(j) then j else t.t_alias.(j)

(* ---- per-tenant attribution ----------------------------------------- *)

(* 64 log₂ latency buckets per tenant in one flat int array: bucket
   [k] holds latencies in [2^(k−40), 2^(k−39)) seconds, covering
   sub-picosecond to ~2-week latencies. Good to a factor of 2 at the
   tail, which is what an SLO verdict and a noisy-neighbor ranking
   need, at a cost of one store per completion. *)
let hist_buckets = 64

let[@inline] bucket_of lat =
  if lat <= 0. then 0
  else begin
    let b = int_of_float (Float.floor (Float.log2 lat)) + 40 in
    if b < 0 then 0 else if b > hist_buckets - 1 then hist_buckets - 1 else b
  end

let bucket_upper b = Float.pow 2. (float_of_int (b - 39))

type acc = {
  a_set : set;
  warmup : float;
  offered : int array;
  delivered : int array;
  dropped : int array;
  offered_bytes : float array;
  delivered_bytes : float array;
  lat_sum : float array;
  lat_max : float array;
  q_sum : float array;
  s_sum : float array;
  w_sum : float array;
  o_sum : float array;
  hist : int array;  (* count tenants × hist_buckets *)
}

let acc set ~warmup =
  let n = count set in
  {
    a_set = set;
    warmup;
    offered = Array.make n 0;
    delivered = Array.make n 0;
    dropped = Array.make n 0;
    offered_bytes = Array.make n 0.;
    delivered_bytes = Array.make n 0.;
    lat_sum = Array.make n 0.;
    lat_max = Array.make n 0.;
    q_sum = Array.make n 0.;
    s_sum = Array.make n 0.;
    w_sum = Array.make n 0.;
    o_sum = Array.make n 0.;
    hist = Array.make (n * hist_buckets) 0;
  }

(* The three records mirror Telemetry's warmup windowing exactly —
   arrivals by their own time, drops and completions by birth time —
   so per-tenant counts sum to the aggregate telemetry accounts. *)

let[@inline] record_offered a ~tenant ~now ~size =
  if now >= a.warmup then begin
    a.offered.(tenant) <- a.offered.(tenant) + 1;
    a.offered_bytes.(tenant) <- a.offered_bytes.(tenant) +. size
  end

let[@inline] record_drop a ~tenant ~born =
  if born >= a.warmup then a.dropped.(tenant) <- a.dropped.(tenant) + 1

let[@inline] record_completion a ~tenant ~fs =
  let born = fs.(Telemetry.slot_born) in
  if born >= a.warmup then begin
    let lat = fs.(Telemetry.slot_now) -. born in
    a.delivered.(tenant) <- a.delivered.(tenant) + 1;
    a.delivered_bytes.(tenant) <-
      a.delivered_bytes.(tenant) +. fs.(Telemetry.slot_size);
    a.lat_sum.(tenant) <- a.lat_sum.(tenant) +. lat;
    if lat > a.lat_max.(tenant) then a.lat_max.(tenant) <- lat;
    a.q_sum.(tenant) <- a.q_sum.(tenant) +. fs.(Telemetry.slot_queueing);
    a.s_sum.(tenant) <- a.s_sum.(tenant) +. fs.(Telemetry.slot_service);
    a.w_sum.(tenant) <- a.w_sum.(tenant) +. fs.(Telemetry.slot_wire);
    a.o_sum.(tenant) <- a.o_sum.(tenant) +. fs.(Telemetry.slot_overhead);
    let b = (tenant * hist_buckets) + bucket_of lat in
    a.hist.(b) <- a.hist.(b) + 1
  end

(* ---- summaries ------------------------------------------------------- *)

type row = {
  r_name : string;
  r_weight : int;
  r_share : float;
  r_offered : int;
  r_delivered : int;
  r_dropped : int;
  r_delivered_bytes : float;
  r_offered_rate : float;
  r_throughput : float;
  r_mean_latency : float;
  r_p99_latency : float;
  r_max_latency : float;
  r_terms : Telemetry.latency_terms;
  r_slo_p99 : float option;
  r_slo_ok : bool option;
}

type fairness = {
  maxmin_ratio : float;
  jain : float;
  interference : float;
}

type stats = {
  t_window : float;
  rows : row array;
  t_fairness : fairness;
}

let p99_of_hist hist tenant delivered lat_max =
  if delivered = 0 then 0.
  else begin
    let target =
      (* the smallest k with cumulative count >= ceil(0.99 n) *)
      let n = float_of_int delivered in
      int_of_float (Float.ceil (0.99 *. n))
    in
    let base = tenant * hist_buckets in
    let rec scan b acc =
      if b >= hist_buckets then lat_max
      else
        let acc = acc + hist.(base + b) in
        if acc >= target then Float.min (bucket_upper b) lat_max
        else scan (b + 1) acc
    in
    scan 0 0
  end

let fairness_of set ~window offered_bytes delivered_bytes lat_sum delivered =
  let n = Array.length delivered in
  if window <= 0. then { maxmin_ratio = 1.; jain = 1.; interference = 1. }
  else begin
    let attained = Array.map (fun b -> b /. window) delivered_bytes in
    let demanded = Array.map (fun b -> b /. window) offered_bytes in
    let total_attained = Array.fold_left ( +. ) 0. attained in
    let w = Array.map (fun s -> float_of_int s.weight) set.t_specs in
    (* Weighted max-min reference allocation of the carried capacity
       across the offered demands; a constrained tenant (demand above
       its fair share) falling short of that share is an isolation
       failure. *)
    let maxmin_ratio =
      if total_attained <= 0. then 1.
      else begin
        let fair =
          Lognic_queueing.Wmmcn.weighted_shares ~capacity:total_attained
            ~weights:w ~demands:demanded
        in
        let worst = ref 1. in
        for i = 0 to n - 1 do
          if demanded.(i) > fair.(i) && fair.(i) > 0. then begin
            let ratio = attained.(i) /. fair.(i) in
            if ratio < !worst then worst := ratio
          end
        done;
        !worst
      end
    in
    let jain =
      let sum = ref 0. and sumsq = ref 0. and active = ref 0 in
      for i = 0 to n - 1 do
        if demanded.(i) > 0. then begin
          let x = attained.(i) /. w.(i) in
          sum := !sum +. x;
          sumsq := !sumsq +. (x *. x);
          incr active
        end
      done;
      if !active = 0 || !sumsq <= 0. then 1.
      else !sum *. !sum /. (float_of_int !active *. !sumsq)
    in
    let interference =
      let best = ref infinity and worst = ref 0. in
      for i = 0 to n - 1 do
        if delivered.(i) > 0 then begin
          let mean = lat_sum.(i) /. float_of_int delivered.(i) in
          if mean < !best then best := mean;
          if mean > !worst then worst := mean
        end
      done;
      if !best = infinity || !best <= 0. then 1. else !worst /. !best
    in
    { maxmin_ratio; jain; interference }
  end

(* Rows-free fairness snapshot for live metrics gauges: reads the
   pooled accumulator arrays directly, no per-tenant row records. *)
let live_fairness a ~horizon =
  let window = Float.max 0. (horizon -. a.warmup) in
  fairness_of a.a_set ~window a.offered_bytes a.delivered_bytes a.lat_sum
    a.delivered

let summarize a ~horizon =
  let window = Float.max 0. (horizon -. a.warmup) in
  let set = a.a_set in
  let shares = shares set in
  let rows =
    Array.mapi
      (fun i s ->
        let delivered = a.delivered.(i) in
        let dn = float_of_int (max 1 delivered) in
        let mean sum = if delivered = 0 then 0. else sum /. dn in
        let p99 = p99_of_hist a.hist i delivered a.lat_max.(i) in
        {
          r_name = s.name;
          r_weight = s.weight;
          r_share = shares.(i);
          r_offered = a.offered.(i);
          r_delivered = delivered;
          r_dropped = a.dropped.(i);
          r_delivered_bytes = a.delivered_bytes.(i);
          r_offered_rate =
            (if window > 0. then a.offered_bytes.(i) /. window else 0.);
          r_throughput =
            (if window > 0. then a.delivered_bytes.(i) /. window else 0.);
          r_mean_latency = mean a.lat_sum.(i);
          r_p99_latency = p99;
          r_max_latency = a.lat_max.(i);
          r_terms =
            {
              Telemetry.queueing = mean a.q_sum.(i);
              service = mean a.s_sum.(i);
              wire = mean a.w_sum.(i);
              overhead = mean a.o_sum.(i);
            };
          r_slo_p99 = s.slo_p99;
          r_slo_ok =
            (match s.slo_p99 with
            | Some slo when delivered > 0 -> Some (p99 <= slo)
            | _ -> None);
        })
      set.t_specs
  in
  {
    t_window = window;
    rows;
    t_fairness =
      fairness_of set ~window a.offered_bytes a.delivered_bytes a.lat_sum
        a.delivered;
  }

let row_to_json r =
  let module J = Telemetry.Json in
  J.Obj
    [
      ("name", J.Str r.r_name);
      ("weight", J.Num (float_of_int r.r_weight));
      ("share", J.Num r.r_share);
      ("offered", J.Num (float_of_int r.r_offered));
      ("delivered", J.Num (float_of_int r.r_delivered));
      ("dropped", J.Num (float_of_int r.r_dropped));
      ("delivered_bytes", J.Num r.r_delivered_bytes);
      ("offered_rate", J.Num r.r_offered_rate);
      ("throughput", J.Num r.r_throughput);
      ("mean_latency", J.Num r.r_mean_latency);
      ("p99_latency", J.Num r.r_p99_latency);
      ("max_latency", J.Num r.r_max_latency);
      ("latency_terms", Telemetry.terms_to_json r.r_terms);
      ( "slo_p99",
        match r.r_slo_p99 with None -> J.Null | Some s -> J.Num s );
      ( "slo_ok",
        match r.r_slo_ok with None -> J.Null | Some ok -> J.Bool ok );
    ]

let stats_to_json t =
  let module J = Telemetry.Json in
  J.Obj
    [
      ("window", J.Num t.t_window);
      ("tenants", J.Arr (Array.to_list (Array.map row_to_json t.rows)));
      ( "fairness",
        J.Obj
          [
            ("maxmin_ratio", J.Num t.t_fairness.maxmin_ratio);
            ("jain", J.Num t.t_fairness.jain);
            ("interference", J.Num t.t_fairness.interference);
          ] );
    ]

(* A single tenant schedules exactly like an untenanted run — the
   hierarchical arbiter would be a one-group ring with one weight-1
   grant per packet — so the arbiter and the tenant rng switch on only
   at two tenants or more. That keeps single-tenant measurement JSON
   byte-identical to the untenanted baseline while still attributing
   every packet to the tenant. *)
let scheduler set ~classes =
  if count set < 2 then Nic.Flat
  else
    Nic.Hierarchical
      { group_weights = weights set; class_weights = class_weight_rows set ~classes }

let install set ~rng ~warmup =
  let a = acc set ~warmup in
  (* Split after the fault rng and before the flow and trace rngs. *)
  let trng = if count set < 2 then None else Some (Lognic_numerics.Rng.split rng) in
  let hooks =
    {
      Nic.no_hooks with
      (* The tenant is drawn on every arrival, before the burst-shed
         admission, so even packets shed at ingress attribute their drop
         to an owner — per-tenant counts sum exactly to the aggregate
         telemetry accounts. The bits draw plus integer-lattice search
         allocates nothing. *)
      arrival =
        Some
          (fun fl ->
            let tenant =
              match trng with
              | Some r -> index_of_bits set (Lognic_numerics.Rng.bits r)
              | None -> 0
            in
            fl.fl_group <- tenant;
            record_offered a ~tenant ~now:fl.fs.(Telemetry.slot_born)
              ~size:fl.fs.(Telemetry.slot_size));
      deliver = Some (fun fl -> record_completion a ~tenant:fl.fl_group ~fs:fl.fs);
      drop =
        Some
          (fun fl _ ->
            record_drop a ~tenant:fl.fl_group ~born:fl.fs.(Telemetry.slot_born));
    }
  in
  (a, hooks)

let gauges a ~engine =
  let fairness () = live_fairness a ~horizon:(Engine.now engine) in
  [
    ("tenants", "maxmin_share", fun () -> (fairness ()).maxmin_ratio);
    ("tenants", "jain", fun () -> (fairness ()).jain);
    ("tenants", "interference", fun () -> (fairness ()).interference);
  ]
