(* The simulator's benchmark, measured as a host program.

   perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
     [--refs FILE] [--out DIR]
   perfbench.exe --pin [--refs FILE]

   --trace 0 runs the workload in a closed loop for S seconds and reports the
   end-to-end metrics; --trace 1 runs one quiet pass, one traced pass and the
   layer probes, and reports the per-layer metrics (spans go to DIR). Every
   metric is printed as "name value unit"; the last line of standard output
   is one JSON object {correct, attempted, failed, metrics}. --pin records
   every simulated output as the new reference set. See README.md. *)

module W = Workloads

type metric = string * float * string

let per_layer_units =
  let classes = [ "conv"; "depthwise"; "matmul"; "resadd"; "pool"; "elementwise" ] in
  [
    ("engine.acquire_ns", "ns"); ("engine.acquire_bytes", "bytes"); ("engine.emit_ns", "ns");
    ("l2.accesses", "count"); ("l2.hit_pct", "pct"); ("l2_port.wait_mcycles", "Mcycles");
    ("dram.requests", "count"); ("dram.mbytes", "MB"); ("cache.access_ns", "ns");
    ("tlb.requests", "count"); ("tlb.walks", "count"); ("tlb.stall_cycles", "cycles");
    ("tlb.translate_ns", "ns");
    ("dma.row_requests", "count"); ("dma.mbytes", "MB"); ("dma.mvin16_ns", "ns");
    ("dma.mvin16_bytes", "bytes"); ("controller.insns", "count"); ("controller.macs", "count");
    ("soc.ops", "count"); ("soc.execute_s", "s"); ("soc.ns_per_op", "ns");
    ("soc.dispatch_ns", "ns"); ("soc.dispatch_bytes", "bytes");
    ("runtime.lower_s", "s"); ("runtime.lower_mb", "MB"); ("kernels.matmul128_us", "us");
    ("export.collector_overhead_pct", "pct"); ("obs.profile_overhead_pct", "pct");
  ]
  @ List.map
      (fun m -> (Printf.sprintf "analytic.%s.estimate_us" (Micro.net_slug m), "us"))
      Gem_dnn.Model_zoo.names
  @ [
      ("dse.evaluate_ms_p50", "ms"); ("dse.evaluate_ms_p99", "ms");
      ("serve.completed", "count"); ("serve.batches", "count");
      ("serve.host_ms_per_request", "ms");
      ("gc.alloc_mb", "MB"); ("gc.minor_gcs", "count"); ("gc.major_gcs", "count");
    ]
  @ List.concat_map
      (fun c ->
        [
          (Printf.sprintf "layer.%s.host_s" c, "s");
          (Printf.sprintf "layer.%s.alloc_mb" c, "MB");
          (Printf.sprintf "layer.%s.sim_mcycles_per_s" c, "Mcycles/s");
        ])
      classes
  @ [
      ("trace_overhead_pct", "pct"); ("host.calib_ms", "ms"); ("host.nproc", "count");
      ("host.dse_default_jobs", "count");
    ]

(* --- end-to-end run ------------------------------------------------------ *)

let end_to_end (w : W.t) refs ~seed ~seconds : metric list =
  let setup_s = w.W.setup ~seed in
  let samples = W.closed_loop ~seconds (w.W.kinds refs ~seed) in
  List.iter
    (fun ss ->
      Printf.printf "  %d job(s), host s: %s\n" (List.length ss)
        (String.concat " " (List.rev_map (fun s -> Printf.sprintf "%.4f" s.W.host_s) ss)))
    samples;
  let err = w.W.analytic_err_pct refs in
  W.throughput samples
  @ [
      ("setup_s", setup_s, "s");
      ("peak_heap_mb", Clock.peak_heap_mb (), "MB");
      ("analytic_err_pct", err, "pct");
    ]

(* --- traced run ----------------------------------------------------------- *)

let gc_counts () =
  let s = Gc.quick_stat () in
  (Clock.allocated (), s.Gc.minor_collections, s.Gc.major_collections)

let traced (w : W.t) refs ~seed ~out : metric list =
  let c : W.counters = Hashtbl.create 64 in
  let set k v = Hashtbl.replace c k v in
  let get k = Option.value ~default:0. (Hashtbl.find_opt c k) in
  let phase name f =
    let r, dt = Clock.timed f in
    Printf.printf "  %-24s %8.3f s\n%!" name dt;
    r
  in
  let micro, micro_ok = phase "microbenchmarks" (fun () -> Micro.run refs) in
  let probes, probes_ok = phase "observer probes" (fun () -> Micro.observer_probes refs) in
  (* the probes count as one job, failed when any checksum or cycle count
     differs *)
  incr Refs.attempted;
  if not (micro_ok && probes_ok) then incr Refs.failed;
  List.iter (fun (k, v, _) -> set k v) (micro @ probes @ Micro.host_context ());
  (* quiet pass: one job of every kind, GC counted *)
  let a0, mi0, ma0 = gc_counts () in
  let quiet = phase "quiet pass" (fun () -> W.closed_loop ~seconds:0. (w.W.kinds refs ~seed)) in
  let a1, mi1, ma1 = gc_counts () in
  set "gc.alloc_mb" (Clock.mb (a1 -. a0));
  set "gc.minor_gcs" (float_of_int (mi1 - mi0));
  set "gc.major_gcs" (float_of_int (ma1 - ma0));
  let quiet_s = List.fold_left (fun acc ss -> acc +. (List.hd ss).W.host_s) 0. quiet in
  (* traced pass: the same calls inside spans, then the traced-only work *)
  let tr = Spans.create () in
  phase "traced pass" (fun () ->
      Spans.with_span tr "pass" (fun () -> w.W.traced_pass refs ~seed tr c));
  let traced_s = Spans.duration_of tr "pass" in
  phase "traced-only work" (fun () ->
      Spans.with_span tr "extra" (fun () -> w.W.traced_extra refs ~seed tr c));
  set "trace_overhead_pct" (100. *. (traced_s -. quiet_s) /. quiet_s);
  let ratio a b = if b > 0. then a /. b else 0. in
  set "l2.hit_pct" (100. *. ratio (get "l2.hits") (get "l2.accesses"));
  set "soc.execute_s" (Spans.duration_of tr "execution");
  set "soc.ns_per_op" (1e9 *. ratio (get "soc.execute_s") (get "soc.ops"));
  set "runtime.lower_s" (Spans.duration_of tr "lowering");
  List.iter
    (fun (k, _) ->
      match String.split_on_char '.' k with
      | [ "layer"; cls; "sim_mcycles_per_s" ] ->
          let key f = Printf.sprintf "layer.%s.%s" cls f in
          set k (ratio (get (key "sim_mcycles")) (get (key "host_s")))
      | _ -> ())
    per_layer_units;
  W.ensure_dir out;
  let path = Filename.concat out (Printf.sprintf "trace-%s-seed%d.json" w.W.w_name seed) in
  Spans.write tr path;
  Printf.printf "  %d spans written to %s\n" (List.length (Spans.spans tr)) path;
  List.map (fun (k, u) -> (k, get k, u)) per_layer_units

(* --- pinning ------------------------------------------------------------ *)

let pin refs =
  let job name f = ignore (Refs.job name f) in
  List.iter (fun m -> job (W.name_of m) (W.zoo_job refs m)) Gem_dnn.Model_zoo.all;
  List.iter (fun m -> job (W.name_of m) (W.contend_job refs m)) W.contend_nets;
  for sub = 0 to W.serve_seeds - 1 do
    job "serve" (W.serve_job refs sub)
  done;
  List.iter
    (fun model ->
      List.iter
        (fun cores ->
          List.iter
            (fun dim ->
              Array.iter
                (fun sp ->
                  Array.iter
                    (fun acc ->
                      let p = W.dse_point ~model ~cores ~dim ~sp ~acc in
                      job p.W.key (fun () ->
                          let o = Gem_dse.Exec.evaluate p.W.point in
                          ((), Refs.bad (Refs.check refs p.W.key (W.outcome_value o)))))
                    W.dse_acc_kb)
                W.dse_sp_kb)
            W.dse_dims)
        [ 1; 2 ])
    Gem_dnn.Model_zoo.names;
  ignore (Micro.run refs);
  ignore (Micro.observer_probes refs)

(* --- output -------------------------------------------------------------- *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "perfbench: a metric is not a finite number"

let report metrics =
  let attempted = !Refs.attempted and failed = !Refs.failed in
  List.iter (fun (k, v, u) -> Printf.printf "%-36s %16.6f %s\n" k v u) metrics;
  Printf.printf "%-36s %16.6f %s   (%d of %d jobs)\n" "ops_failed_pct"
    (100. *. float_of_int failed /. float_of_int (max 1 attempted))
    "pct" failed attempted;
  let correct = failed = 0 && !Refs.mismatches = 0 && attempted > 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 attempted) failed
    (String.concat ", "
       (List.map
          (fun (k, v, u) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" k (json_number v) u)
          metrics))

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let refs_path = ref "perfbench/refs.txt" and out = ref "_perfbench" and pinning = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--refs", Arg.Set_string refs_path, "FILE pinned outputs");
      ("--out", Arg.Set_string out, "DIR where the traced run writes its spans");
      ("--pin", Arg.Set pinning, " record every simulated output into --refs");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let refs = Refs.load ~pinning:!pinning !refs_path in
  W.out_dir := !out;
  if !pinning then begin
    pin refs;
    if !Refs.failed > 0 then failwith "perfbench: pinning failed";
    Refs.save refs !refs_path;
    Printf.printf "pinned %d outputs in %s\n" (List.length refs.Refs.recorded) !refs_path
  end
  else begin
    let w =
      match List.find_opt (fun w -> w.W.w_name = !workload) W.all with
      | Some w -> w
      | None -> raise (Arg.Bad ("unknown workload " ^ !workload))
    in
    Printf.printf "perfbench %s seed %d, %s; OCaml %s, %d Domain(s) recommended\n%!" w.W.w_name !seed
      (if !trace = 1 then "traced" else Printf.sprintf "%gs window" !seconds)
      Sys.ocaml_version (Domain.recommended_domain_count ());
    report
      (if !trace = 1 then traced w refs ~seed:!seed ~out:!out
       else end_to_end w refs ~seed:!seed ~seconds:!seconds)
  end
