(* Byte-identity against committed golden fixtures.

   The files in test/golden/*.json were generated by test/golden/gen.exe
   against the original binary-heap engine, before the calendar-queue /
   zero-allocation overhaul.  Each test below re-runs the pinned
   scenario on the current engine and asserts the measurement JSON is
   byte-for-byte identical — event order, rng stream layout and float
   operation order all have to match exactly for this to hold. *)

open Helpers

let read_fixture ?(ext = ".json") name =
  let path = Filename.concat "golden" (name ^ ext) in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  String.trim s

let first_diff a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  go 0

let byte_identity_case ?ext name actual =
  let expected = read_fixture ?ext name in
  if not (String.equal expected actual) then begin
    let i = first_diff expected actual in
    let ctx s =
      let lo = max 0 (i - 40) in
      String.sub s lo (min 80 (String.length s - lo))
    in
    Alcotest.failf
      "%s: JSON diverges from golden fixture at byte %d\n\
       expected ...%s...\n\
       actual   ...%s..."
      name i (ctx expected) (ctx actual)
  end

let scenario_case (name, run) =
  quick name (fun () ->
      byte_identity_case name
        (String.trim (Lognic_check.Golden.measurement_string run)))

(* The contended two-class fixture pins the joint model, the contention
   layer and the report serialization in one byte comparison. *)
let contention_case (name, render) =
  quick name (fun () -> byte_identity_case name (String.trim (render ())))

(* The metrics-stream fixture pins the live registry's instrument
   catalog, delta arithmetic, alert transitions and the streaming
   NDJSON serializer in one byte comparison. *)
let metrics_case (name, render) =
  quick name (fun () ->
      byte_identity_case ~ext:".ndjson" name (String.trim (render ())))

(* The tenants fixture pins the two-stage arbiter, the tenant rng
   stream, per-VF attribution and the per-tenant analytic join in one
   byte comparison. *)
let tenant_case (name, render) =
  quick name (fun () -> byte_identity_case name (String.trim (render ())))

(* The flowcache fixture pins the flow sampler, LRU eviction order,
   flow rng stream, per-class histograms and the fixed-point join in
   one byte comparison. *)
let flowcache_case (name, render) =
  quick name (fun () -> byte_identity_case name (String.trim (render ())))

(* The all-features fixture pins how the optional features compose in
   one run: its JSON text and its metrics stream are compared from the
   same execution. *)
let all_features_case (name, render) =
  quick name (fun () ->
      let json, ndjson = render () in
      byte_identity_case name (String.trim json);
      byte_identity_case ~ext:".ndjson" name (String.trim ndjson))

let suite =
  List.map scenario_case (Lognic_check.Golden.scenarios ())
  @ List.map contention_case (Lognic_check.Golden.contention_scenarios ())
  @ List.map tenant_case (Lognic_check.Golden.tenant_scenarios ())
  @ List.map flowcache_case (Lognic_check.Golden.flowcache_scenarios ())
  @ List.map metrics_case (Lognic_check.Golden.metrics_scenarios ())
  @ List.map all_features_case (Lognic_check.Golden.all_features_scenarios ())
