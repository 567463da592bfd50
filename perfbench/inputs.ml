(* Seeded input generation. Every workload input is DSL text (plus the
   simulator seed of each op); the program under test only ever sees
   that text, parsed through the same entry point the CLI uses. *)

let nvmeof_target =
  {|# NVMe-oF target on a Stingray-class JBOF, 4 KiB random reads.
hardware interface=150Gbps memory=19.2GB/s
vertex rx ingress throughput=100Gbps queue=256
vertex submission ip throughput=149Gbps parallelism=8 queue=128 overhead=0.5us partition=0.5
vertex ssd_bus ip throughput=3.2GB/s queue=128
vertex ssd ip throughput=2.75GB/s parallelism=64 queue=256
vertex completion ip throughput=218Gbps parallelism=8 queue=128 overhead=0.5us partition=0.5
vertex tx egress throughput=100Gbps
edge rx -> submission alpha=1.0
edge submission -> ssd_bus alpha=1.0 beta=1.0
edge ssd_bus -> ssd
edge ssd -> completion alpha=1.0 beta=1.0
edge completion -> tx alpha=1.0
traffic rate=2GB/s packet=4KiB
|}

let steering =
  {|# PANIC model 2: three accelerators (4:7:3) behind a scheduler.
hardware interface=800Gbps memory=600Gbps
vertex rx ingress throughput=250Gbps queue=256
vertex sched ip throughput=250Gbps queue=128
vertex a1 ip throughput=32Gbps queue=8
vertex a2 ip throughput=56Gbps queue=8
vertex a3 ip throughput=24Gbps queue=8
vertex tx egress throughput=250Gbps
edge rx -> sched alpha=1.0
edge sched -> a1 delta=0.33 alpha=0.33
edge sched -> a2 delta=0.34 alpha=0.34
edge sched -> a3 delta=0.33 alpha=0.33
edge a1 -> tx delta=0.33 alpha=0.33
edge a2 -> tx delta=0.34 alpha=0.34
edge a3 -> tx delta=0.33 alpha=0.33
class rate=40Gbps packet=64B
class rate=40Gbps packet=1500B
traffic rate=80Gbps packet=512B
|}

let echo_md5 =
  {|# UDP echo with MD5 offload on a LiquidIO-class SmartNIC.
hardware interface=40Gbps memory=50Gbps
vertex rx ingress throughput=25Gbps queue=128
vertex cores ip throughput=6Gbps parallelism=8 queue=64 overhead=1us partition=0.5
vertex md5 ip throughput=21.6Gbps queue=32
vertex tx egress throughput=25Gbps
edge rx -> cores
edge cores -> md5 beta=1.0
edge md5 -> tx
traffic rate=4Gbps packet=1500B
|}

(* A stream of per-op simulator seeds: op [i] of a run always gets the
   same seed whatever the host speed, so the simulated statistics of
   the first ops are comparable across runs and commits. *)
let sim_seed ~seed i = (seed * 7919) + (i * 104729) + 1

(* [n] copies of [text] at seeded offered loads: every [rate=] on a
   [traffic] or [class] line scaled by one factor drawn from
   [0.5, 1.0), as a load sweep of the CLI would. *)
let load_sweep ~seed text n =
  let rng = Random.State.make [| seed; 0x10ad |] in
  let scale factor line =
    let is_rate_line =
      String.starts_with ~prefix:"traffic " line || String.starts_with ~prefix:"class " line
    in
    let scale_word w =
      match String.split_on_char '=' w with
      | [ "rate"; q ] ->
        let digits = ref 0 in
        while !digits < String.length q && (q.[!digits] = '.' || (q.[!digits] >= '0' && q.[!digits] <= '9')) do
          incr digits
        done;
        let v = float_of_string (String.sub q 0 !digits) in
        Printf.sprintf "rate=%.6g%s" (v *. factor) (String.sub q !digits (String.length q - !digits))
      | _ -> w
    in
    if is_rate_line then String.concat " " (List.map scale_word (String.split_on_char ' ' line))
    else line
  in
  List.init n (fun _ ->
      let factor = 0.5 +. Random.State.float rng 0.5 in
      String.concat "\n" (List.map (scale factor) (String.split_on_char '\n' text)))
