let sim_config ?seed ?(warmup_fraction = 0.1) duration =
  let c = Lognic_sim.Netsim.Config.default in
  let seed = Option.value seed ~default:c.seed in
  Lognic_sim.Netsim.Config.(
    c |> with_seed seed |> with_horizon ~warmup:(duration *. warmup_fraction) duration)

let header ppf title columns =
  Fmt.pf ppf "== %s ==@.%s@." title (String.concat "  " columns)

let model_vs_measured ppf ~x ~model ~measured =
  let gap =
    if measured = 0. then 0. else 100. *. (measured -. model) /. measured
  in
  Fmt.pf ppf "%-12s  %12.4g  %12.4g  %6.1f%%@." x model measured gap
