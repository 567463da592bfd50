(* Writes the golden measurement-JSON fixtures for every scenario in
   [Lognic_check.Golden] into the directory given as argv(1).  Run once
   against a known-good engine and commit the output; the test suite
   then asserts byte-equality on every run. *)
let write ?(ext = ".json") dir name contents =
  let path = Filename.concat dir (name ^ ext) in
  let oc = open_out_bin path in
  output_string oc contents;
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" path

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  List.iter
    (fun (name, run) ->
      write dir name (Lognic_check.Golden.measurement_string run))
    (Lognic_check.Golden.scenarios ());
  List.iter
    (fun (name, render) -> write dir name (render ()))
    (Lognic_check.Golden.contention_scenarios ());
  List.iter
    (fun (name, render) -> write dir name (render ()))
    (Lognic_check.Golden.tenant_scenarios ());
  List.iter
    (fun (name, render) -> write dir name (render ()))
    (Lognic_check.Golden.flowcache_scenarios ());
  List.iter
    (fun (name, render) ->
      write ~ext:".ndjson" dir name (String.trim (render ())))
    (Lognic_check.Golden.metrics_scenarios ());
  List.iter
    (fun (name, render) ->
      let json, ndjson = render () in
      write dir name json;
      write ~ext:".ndjson" dir name (String.trim ndjson))
    (Lognic_check.Golden.all_features_scenarios ())
