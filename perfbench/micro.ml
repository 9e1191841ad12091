(* Layer microbenchmarks through public functions, observer-cost probes and
   the host calibration loop. Every microbenchmark reports ns/call (median
   of three rounds) and bytes/call, and pins a checksum of its results so a
   faster layer that computes something else fails. *)

open Gem_sim

type metric = string * float * string

let mode = Gem_sw.Runtime.Accel { im2col_on_accel = true }

(* [body n] runs [n] calls and returns a checksum of their results. *)
let measure refs name ~iters body : float * float * bool =
  let round () =
    let a = Clock.allocated () in
    let sum, dt = Clock.timed (fun () -> body iters) in
    let bytes = Clock.allocated () -. a in
    (sum, dt *. 1e9 /. float_of_int iters, bytes /. float_of_int iters)
  in
  let rounds = List.init 3 (fun _ -> round ()) in
  let sums = List.map (fun (s, _, _) -> s) rounds in
  let ok =
    List.for_all (( = ) (List.hd sums)) sums
    && Refs.check refs ("micro." ^ name) (string_of_int (List.hd sums))
  in
  let ns = Clock.median (List.map (fun (_, ns, _) -> ns) rounds) in
  let bytes = Clock.median (List.map (fun (_, _, b) -> b) rounds) in
  (ns, bytes, ok)

let acquire_loop ~sink n =
  let e = Engine.create () in
  let seen = ref 0 in
  if sink then Engine.add_sink e (fun _ -> incr seen);
  let bus = Engine.resource e ~kind:Engine.Bus ~name:"bus" in
  let sum = ref 0 in
  for i = 1 to n do
    sum := !sum + Engine.acquire e bus ~now:i ~occupancy:(1 + (i land 3))
  done;
  !sum + !seen

let cache_loop n =
  let c =
    Gem_mem.Cache.create ~size_bytes:(1 lsl 20) ~ways:16 ~line_bytes:64 ()
  in
  let hits = ref 0 in
  for i = 1 to n do
    (* scattered lines over 2 MiB against a 1 MiB cache: hits and
       evictions mixed *)
    let addr = ((i * 2654435761) lsr 7) land 0x1F_FFC0 in
    match Gem_mem.Cache.access c ~addr ~write:(i land 7 = 0) with
    | Gem_mem.Cache.Hit -> incr hits
    | Miss | Miss_writeback -> ()
  done;
  !hits

let tlb_for ~mem_read =
  let pt = Gem_vm.Page_table.create ~node_region_base:0x1000_0000 () in
  Gem_vm.Page_table.map_range pt ~vaddr:0 ~bytes:(1 lsl 22) ~paddr:0x40_0000;
  let ptw = Gem_vm.Ptw.create ~page_table:pt ~mem_read () in
  Gem_vm.Hierarchy.create Gem_vm.Hierarchy.default_config ~ptw

let translate_loop n =
  let h = tlb_for ~mem_read:(fun ~now ~paddr:_ ~bytes:_ -> now + 20) in
  let sum = ref 0 in
  for i = 1 to n do
    (* 64 pages round-robin: filter, private, shared and walk levels *)
    let o =
      Gem_vm.Hierarchy.translate h ~now:i
        ~vaddr:(((i * 4099) land 63 * 4096) + (i land 4095))
        ~write:false
    in
    sum := !sum + o.Gem_vm.Hierarchy.finish + (o.Gem_vm.Hierarchy.paddr land 0xFFFF)
  done;
  !sum

let mvin_loop n =
  let tlb = tlb_for ~mem_read:(fun ~now ~paddr:_ ~bytes:_ -> now + 20) in
  let dma =
    Gemmini.Dma.create Gemmini.Params.default ~port:Gemmini.Dma.null_port ~tlb
  in
  let sum = ref 0 in
  for i = 1 to n do
    let t =
      Gemmini.Dma.mvin dma ~now:(i * 1000) ~vaddr:((i land 255) * 1024)
        ~stride_bytes:64 ~rows:16 ~row_bytes:64
    in
    sum := !sum + t.Gemmini.Dma.finish - (i * 1000)
  done;
  !sum

(* A synthetic op stream: host work and markers, three quarters work. *)
let dispatch_loop n =
  let soc = Gem_soc.Soc.create Gem_soc.Soc_config.default in
  let marks = ref 0 in
  let ops =
    Seq.init n (fun i ->
        if i land 3 = 3 then Gem_soc.Soc.Marker (fun _ -> incr marks)
        else Gem_soc.Soc.Host_work { cycles = 1 + (i land 7); tag = "w" })
  in
  Gem_soc.Soc.run_program soc (Gem_soc.Soc.core soc 0) ops + !marks

let matmul_loop n =
  let sum = ref 0 in
  for i = 1 to n do
    sum :=
      !sum
      + List.length
          (Gem_sw.Kernels.matmul_ops Gemmini.Params.default
             ~a:(0x10000 * i) ~b:0x200000 ~out:0x300000 ~m:128 ~k:128 ~n:128
             ())
  done;
  !sum

let estimate_loop model n =
  let rq =
    Gem_sw.Backend.request ~config:Gem_soc.Soc_config.default [| (model, mode) |]
  in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + (Gem_sw.Backend_analytic.run rq).(0).Gem_sw.Runtime.r_total_cycles
  done;
  !sum

let net_slug name =
  String.map (fun c -> if c = '.' || c = '/' then '_' else c) name

(* All microbenchmarks: (metrics, every checksum matched). *)
let run refs : metric list * bool =
  let ok = ref true in
  let m name ~iters body k =
    let ns, bytes, good = measure refs name ~iters body in
    ok := !ok && good;
    k ns bytes
  in
  let metrics =
    List.concat
      [
        m "engine.acquire" ~iters:1_000_000 (acquire_loop ~sink:false)
          (fun ns b -> [ ("engine.acquire_ns", ns, "ns"); ("engine.acquire_bytes", b, "bytes") ]);
        m "engine.emit" ~iters:300_000 (acquire_loop ~sink:true) (fun ns _ ->
            [ ("engine.emit_ns", ns, "ns") ]);
        m "cache.access" ~iters:1_000_000 cache_loop (fun ns _ ->
            [ ("cache.access_ns", ns, "ns") ]);
        m "tlb.translate" ~iters:300_000 translate_loop (fun ns _ ->
            [ ("tlb.translate_ns", ns, "ns") ]);
        m "dma.mvin16" ~iters:50_000 mvin_loop (fun ns b ->
            [ ("dma.mvin16_ns", ns, "ns"); ("dma.mvin16_bytes", b, "bytes") ]);
        m "soc.dispatch" ~iters:200_000 dispatch_loop (fun ns b ->
            [ ("soc.dispatch_ns", ns, "ns"); ("soc.dispatch_bytes", b, "bytes") ]);
        m "kernels.matmul128" ~iters:200 matmul_loop (fun ns _ ->
            [ ("kernels.matmul128_us", ns /. 1e3, "us") ]);
        List.concat_map
          (fun (model : Gem_dnn.Layer.model) ->
            let slug = net_slug model.Gem_dnn.Layer.model_name in
            m ("analytic." ^ slug) ~iters:20 (estimate_loop model) (fun ns _ ->
                [ (Printf.sprintf "analytic.%s.estimate_us" slug, ns /. 1e3, "us") ]))
          Gem_dnn.Model_zoo.all;
      ]
  in
  (metrics, !ok)

(* --- observer-cost probes ------------------------------------------------ *)

(* mobilenetv2 at this channel scale: the probes run in every traced run, so
   they stay a few seconds long. *)
let probe_scale = 8

(* Quiet, with the Export latency collector Serve.run always attaches, and
   with the host self-profiler: identical cycles, relative host cost. *)
let observer_probes refs : metric list * bool =
  let model =
    Gem_dnn.Model_zoo.scale_model ~factor:probe_scale Gem_dnn.Model_zoo.mobilenetv2
  in
  let run ?(collector = false) () =
    let soc = Gem_soc.Soc.create Gem_soc.Soc_config.default in
    if collector then ignore (Export.attach ~spans:false (Gem_soc.Soc.engine soc));
    Clock.timed (fun () ->
        (Gem_sw.Runtime.run soc ~core:0 model ~mode).Gem_sw.Runtime.r_total_cycles)
  in
  let profiled () =
    Gem_obs.Profile.reset ();
    Gem_obs.Profile.enable ();
    Fun.protect ~finally:Gem_obs.Profile.disable run
  in
  (* alternate the three variants so host drift hits them equally *)
  let rounds =
    List.init 3 (fun _ ->
        let q = run () in
        let c = run ~collector:true () in
        let p = profiled () in
        (q, c, p))
  in
  let cycles = List.concat_map (fun ((a, _), (b, _), (c, _)) -> [ a; b; c ]) rounds in
  let ok =
    List.for_all (( = ) (List.hd cycles)) cycles
    && Refs.check refs
         (Printf.sprintf "probe.mobilenetv2_%d.total" probe_scale)
         (string_of_int (List.hd cycles))
  in
  let med f = Clock.median (List.map f rounds) in
  let quiet = med (fun ((_, t), _, _) -> t) in
  let collected = med (fun (_, (_, t), _) -> t) in
  let profiled = med (fun (_, _, (_, t)) -> t) in
  let pct t = 100. *. (t -. quiet) /. quiet in
  ( [
      ("export.collector_overhead_pct", pct collected, "pct");
      ("obs.profile_overhead_pct", pct profiled, "pct");
    ],
    ok )

(* --- host context -------------------------------------------------------- *)

(* A fixed integer loop: how fast this host runs plain OCaml today. *)
let calib_ms () =
  let loop () =
    let x = ref 1 in
    for i = 1 to 20_000_000 do
      x := (!x * 1103515245) + 12345 + i land 0x3FFF_FFFF
    done;
    Sys.opaque_identity !x
  in
  1e3 *. Clock.median_time ~reps:3 (fun () -> ignore (loop ()))

let host_context () : metric list =
  [
    ("host.calib_ms", calib_ms (), "ms");
    ("host.nproc", float_of_int (Domain.recommended_domain_count ()), "count");
    ("host.dse_default_jobs", float_of_int (Gem_dse.Exec.default_jobs ()), "count");
  ]
