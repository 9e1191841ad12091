(* gem_sim: resource arbitration edge cases, the engine's
   registry/clock/event stream, and end-to-end determinism of a dual-core
   run. *)

open Gem_sim
module Soc = Gem_soc.Soc
module Soc_config = Gem_soc.Soc_config
module Runtime = Gem_sw.Runtime

(* --- Resource ------------------------------------------------------------- *)

let test_resource_zero_occupancy () =
  let r = Resource.create ~name:"r" in
  Alcotest.(check int) "first acquire" 15 (Resource.acquire r ~now:10 ~occupancy:5);
  Alcotest.(check int) "busy_until" 15 (Resource.busy_until r);
  (* A zero-occupancy request (a probe, a zero-byte burst) must observe its
     slot time without reserving anything: it is not allowed to push
     busy_until forward to its own arrival time. *)
  Alcotest.(check int) "zero-occupancy returns slot" 20
    (Resource.acquire r ~now:20 ~occupancy:0);
  Alcotest.(check int) "busy_until unchanged" 15 (Resource.busy_until r);
  Alcotest.(check int) "busy_cycles unchanged" 5 (Resource.busy_cycles r);
  Alcotest.(check int) "but it counted as a request" 2 (Resource.requests r);
  (* An earlier-in-time requester must still queue behind the first
     reservation only, not behind the probe. *)
  Alcotest.(check int) "queues at 15" 18 (Resource.acquire r ~now:12 ~occupancy:3);
  Alcotest.(check int) "waited 3" 3 (Resource.wait_cycles r)

let test_resource_next_free_occupy () =
  let r = Resource.create ~name:"r" in
  Alcotest.(check int) "idle: start at now" 7 (Resource.next_free r ~now:7);
  Alcotest.(check int) "query had no side effects" 0 (Resource.requests r);
  (* Commit a reservation whose duration was computed downstream. *)
  Resource.occupy_until r ~now:7 ~start:7 ~until:19;
  Alcotest.(check int) "busy_until" 19 (Resource.busy_until r);
  Alcotest.(check int) "busy_cycles" 12 (Resource.busy_cycles r);
  Alcotest.(check int) "requests" 1 (Resource.requests r);
  (* next_free + occupy_until must agree with what acquire would do. *)
  let start = Resource.next_free r ~now:10 in
  Alcotest.(check int) "queued start" 19 start;
  Resource.occupy_until r ~now:10 ~start ~until:(start + 4);
  Alcotest.(check int) "wait charged" 9 (Resource.wait_cycles r);
  Alcotest.(check int) "busy extended" 23 (Resource.busy_until r);
  (* A commit that ends inside an existing reservation never rewinds. *)
  Resource.occupy_until r ~now:23 ~start:23 ~until:23;
  Alcotest.(check int) "zero-length commit keeps busy_until" 23
    (Resource.busy_until r);
  Alcotest.check_raises "start before now"
    (Invalid_argument "Resource.occupy_until: start before now") (fun () ->
      Resource.occupy_until r ~now:5 ~start:4 ~until:6);
  Alcotest.check_raises "until before start"
    (Invalid_argument "Resource.occupy_until: until before start") (fun () ->
      Resource.occupy_until r ~now:30 ~start:31 ~until:30)

let test_resource_reset () =
  let r = Resource.create ~name:"r" in
  ignore (Resource.acquire r ~now:0 ~occupancy:10);
  ignore (Resource.acquire r ~now:0 ~occupancy:10);
  Resource.reset r;
  Alcotest.(check int) "busy_until" 0 (Resource.busy_until r);
  Alcotest.(check int) "busy_cycles" 0 (Resource.busy_cycles r);
  Alcotest.(check int) "wait_cycles" 0 (Resource.wait_cycles r);
  Alcotest.(check int) "requests" 0 (Resource.requests r);
  Alcotest.(check string) "name survives" "r" (Resource.name r)

(* --- Engine --------------------------------------------------------------- *)

let test_engine_registry () =
  let e = Engine.create () in
  let a = Engine.resource e ~kind:Engine.Bus ~name:"bus" in
  let b = Engine.resource e ~kind:Engine.Bus ~name:"bus" in
  Engine.register_probe e ~kind:Engine.Tlb ~name:"tlb" ~sample:(fun () ->
      { Engine.p_requests = 3; p_busy = 1; p_wait = 2; p_note = "probed" });
  Alcotest.(check string) "first keeps its name" "bus" (Resource.name a);
  Alcotest.(check string) "duplicate is uniquified" "bus#2" (Resource.name b);
  Alcotest.(check (list string)) "registration order"
    [ "bus"; "bus#2"; "tlb" ]
    (List.map fst (Engine.components e));
  match Engine.stats e with
  | [ _; _; p ] ->
      Alcotest.(check string) "probe name" "tlb" p.Engine.stat_name;
      Alcotest.(check int) "probe requests" 3 p.Engine.stat_requests;
      Alcotest.(check int) "probe busy" 1 p.Engine.stat_busy;
      Alcotest.(check int) "probe wait" 2 p.Engine.stat_wait;
      Alcotest.(check string) "probe note" "probed" p.Engine.stat_note
  | l -> Alcotest.failf "expected 3 stats, got %d" (List.length l)

let test_engine_clock_and_stats () =
  let e = Engine.create () in
  let bus = Engine.resource e ~kind:Engine.Bus ~name:"bus" in
  Alcotest.(check int) "clock starts at zero" 0 (Engine.now e);
  Alcotest.(check int) "acquire times like the resource" 12
    (Engine.acquire e bus ~now:2 ~occupancy:10);
  Alcotest.(check int) "clock is the high-water mark" 12 (Engine.now e);
  let start = Engine.next_free e bus ~now:5 in
  Engine.occupy e bus ~now:5 ~start ~until:(start + 3);
  Alcotest.(check int) "occupy advances the clock" 15 (Engine.now e);
  (match Engine.stats e with
  | [ s ] ->
      Alcotest.(check int) "requests" 2 s.Engine.stat_requests;
      Alcotest.(check int) "busy" 13 s.Engine.stat_busy;
      Alcotest.(check int) "wait" 7 s.Engine.stat_wait
  | l -> Alcotest.failf "expected 1 stat, got %d" (List.length l));
  Engine.observe e 100;
  Alcotest.(check int) "observe moves forward" 100 (Engine.now e);
  Engine.observe e 50;
  Alcotest.(check int) "observe never rewinds" 100 (Engine.now e)

let test_engine_events_and_sinks () =
  let e = Engine.create ~trace_capacity:8 () in
  let bus = Engine.resource e ~kind:Engine.Bus ~name:"bus" in
  Alcotest.(check bool) "quiet by default" false (Engine.observing e);
  ignore (Engine.acquire e bus ~now:0 ~occupancy:4);
  Alcotest.(check int) "no events while quiet" 0 (Engine.event_count e);
  Engine.set_tracing e true;
  let seen = ref [] in
  Engine.add_sink e (fun ev -> seen := ev :: !seen);
  ignore (Engine.acquire e bus ~now:10 ~occupancy:2);
  Engine.emit e
    (Engine.Transfer { component = "bus"; time = 12; dir = `Read; bytes = 64 });
  Alcotest.(check int) "ring recorded both" 2 (Engine.event_count e);
  Alcotest.(check int) "sink saw both" 2 (List.length !seen);
  (match Engine.events e with
  | [
   Engine.Acquire { component; start; finish; _ };
   Engine.Transfer { bytes; _ };
  ] ->
      Alcotest.(check string) "acquire component" "bus" component;
      Alcotest.(check int) "acquire start follows first burst" 10 start;
      Alcotest.(check int) "acquire finish" 12 finish;
      Alcotest.(check int) "transfer bytes" 64 bytes
  | _ -> Alcotest.fail "expected [Acquire; Transfer]");
  Engine.reset e;
  Alcotest.(check int) "reset clears the ring" 0 (Engine.event_count e);
  Alcotest.(check int) "reset clears the clock" 0 (Engine.now e);
  match Engine.stats e with
  | [ s ] -> Alcotest.(check int) "reset clears resources" 0 s.Engine.stat_requests
  | _ -> Alcotest.fail "registry survives reset"

(* --- allocation-free quiet hot path ----------------------------------------

   The flattened hot path promises zero per-event heap allocation while no
   observer is attached: Resource.acquire, the engine's quiet acquire
   loop, and the DMA's timing-only transfer walk. [Gc.allocated_bytes]
   deltas pin that down — a regression that boxes a result or rebuilds a
   closure per event shows up as bytes per iteration. *)

let measure_alloc f =
  (* Empty the minor arena first: the measured loops allocate well under
     one arena, so no collection can land inside the measurement window
     and perturb the counter. *)
  Gc.minor ();
  (* Calibrate away the allocation of the [Gc.allocated_bytes] floats
     themselves. *)
  let overhead =
    let a = Gc.allocated_bytes () in
    let b = Gc.allocated_bytes () in
    b -. a
  in
  let before = Gc.allocated_bytes () in
  f ();
  let after = Gc.allocated_bytes () in
  after -. before -. overhead

let test_alloc_free_resource_acquire () =
  let r = Resource.create ~name:"r" in
  ignore (Resource.acquire r ~now:0 ~occupancy:1);
  let bytes =
    measure_alloc (fun () ->
        for i = 1 to 10_000 do
          ignore (Resource.acquire r ~now:i ~occupancy:1)
        done)
  in
  Alcotest.(check (float 0.)) "Resource.acquire allocates nothing" 0. bytes

let test_alloc_free_engine_quiet () =
  let e = Engine.create () in
  let bus = Engine.resource e ~kind:Engine.Bus ~name:"bus" in
  ignore (Engine.acquire e bus ~now:0 ~occupancy:1);
  Alcotest.(check bool) "engine is quiet" false (Engine.observing e);
  let bytes =
    measure_alloc (fun () ->
        for i = 1 to 10_000 do
          ignore (Engine.acquire e bus ~now:i ~occupancy:1)
        done)
  in
  Alcotest.(check (float 0.)) "quiet Engine.acquire allocates nothing" 0.
    bytes;
  (* Queued requests: waits grow by 99 cycles per call, sweeping every
     wait-histogram bucket and then the clamp. *)
  let bytes =
    measure_alloc (fun () ->
        for i = 1 to 10_000 do
          ignore (Engine.acquire e bus ~now:i ~occupancy:100)
        done)
  in
  Alcotest.(check (float 0.)) "queued Engine.acquire allocates nothing" 0.
    bytes

let test_alloc_constant_dma_transfer () =
  (* Timing-only mvin: the per-row segment walk reuses one preallocated
     translation slot and the DMA's cursor fields, so allocation per
     transfer is one constant-size result record — independent of the
     row count. *)
  let pt = Gem_vm.Page_table.create ~node_region_base:0x1000_0000 () in
  Gem_vm.Page_table.map_range pt ~vaddr:0 ~bytes:(1 lsl 22) ~paddr:0x40_0000;
  let ptw =
    Gem_vm.Ptw.create ~page_table:pt
      ~mem_read:(fun ~now ~paddr:_ ~bytes:_ -> now + 20)
      ()
  in
  let tlb =
    Gem_vm.Hierarchy.create
      {
        Gem_vm.Hierarchy.private_entries = 4;
        shared_entries = 0;
        filter_registers = true;
        private_hit_latency = 2;
        shared_hit_latency = 8;
      }
      ~ptw
  in
  let dma =
    Gemmini.Dma.create Gemmini.Params.default ~port:Gemmini.Dma.null_port ~tlb
  in
  let per_call rows =
    (* Warm the TLB/filters so the measured calls stay on the hit path. *)
    ignore
      (Gemmini.Dma.mvin dma ~now:0 ~vaddr:0 ~stride_bytes:64 ~rows
         ~row_bytes:64);
    let iters = 1_000 in
    let bytes =
      measure_alloc (fun () ->
          for i = 1 to iters do
            ignore
              (Gemmini.Dma.mvin dma ~now:(i * 10_000) ~vaddr:0
                 ~stride_bytes:64 ~rows ~row_bytes:64)
          done)
    in
    bytes /. float_of_int iters
  in
  let one = per_call 1 and many = per_call 32 in
  Alcotest.(check (float 0.)) "per-transfer bytes independent of rows" one
    many;
  Alcotest.(check bool) "per-transfer bytes are one small record" true
    (one <= 64.)

let test_alloc_free_cache_access () =
  (* 4 KiB, 2-way, 64 B lines: every other access revisits one of 16 hot
     lines (hits); the rest stream through 1,024 others (misses, evicting
     lines dirtied by earlier writes). *)
  let c = Gem_mem.Cache.create ~size_bytes:4096 ~ways:2 ~line_bytes:64 () in
  let access i =
    let line = if i land 1 = 0 then i land 15 else 64 + ((i * 5) land 1023) in
    ignore (Gem_mem.Cache.access c ~addr:(line * 64) ~write:(i mod 3 = 0))
  in
  for i = 0 to 999 do
    access i
  done;
  let bytes =
    measure_alloc (fun () ->
        for i = 0 to 9_999 do
          access i
        done)
  in
  Alcotest.(check bool) "the loop both hits and misses" true
    (Gem_mem.Cache.hits c > 0 && Gem_mem.Cache.misses c > 0
    && Gem_mem.Cache.writebacks c > 0);
  Alcotest.(check (float 0.)) "Cache.access allocates nothing" 0. bytes

let test_alloc_constant_soc_mvin () =
  (* The same timing-only mvin as above, but through a real SoC port: every
     row walks the shared L2 (and DRAM on misses), so a per-line or
     per-request allocation in the memory path shows up as bytes that grow
     with the row count. The rows stay inside one page, so translation
     stays on the filter-register hit path. *)
  let soc = Soc.create Soc_config.default in
  let core = Soc.core soc 0 in
  let dma = Gemmini.Controller.dma (Soc.controller core) in
  let vaddr = Soc.alloc soc core ~bytes:(64 * 1024) in
  Alcotest.(check bool) "engine is quiet" false
    (Engine.observing (Soc.engine soc));
  let per_call rows =
    ignore
      (Gemmini.Dma.mvin dma ~now:0 ~vaddr ~stride_bytes:64 ~rows
         ~row_bytes:64);
    let iters = 1_000 in
    let bytes =
      measure_alloc (fun () ->
          for i = 1 to iters do
            ignore
              (Gemmini.Dma.mvin dma ~now:(i * 100_000) ~vaddr
                 ~stride_bytes:64 ~rows ~row_bytes:64)
          done)
    in
    bytes /. float_of_int iters
  in
  let one = per_call 1 and many = per_call 32 in
  Alcotest.(check (float 0.)) "per-transfer bytes independent of rows" one
    many

let test_alloc_controller_preload_compute () =
  (* Timing mode: validation, the mesh cycle model and the execute pipe
     allocate nothing, so a command costs at most the one preload-state
     record that Preload (and a preloading compute) installs. *)
  let soc = Soc.create Soc_config.default in
  let ctrl = Soc.controller (Soc.core soc 0) in
  let module Isa = Gemmini.Isa in
  let module L = Gemmini.Local_addr in
  Gemmini.Controller.execute ctrl
    (Isa.Config_ex
       {
         dataflow = `WS;
         activation = Gemmini.Peripheral.No_activation;
         sys_shift = 0;
         a_transpose = false;
         b_transpose = false;
       });
  let block ~row =
    {
      Isa.a = L.scratchpad ~row;
      bd = L.garbage;
      a_cols = 16;
      a_rows = 16;
      bd_cols = 16;
      bd_rows = 16;
    }
  in
  let cmds =
    [|
      Isa.Preload
        {
          b = L.scratchpad ~row:256;
          c = L.accumulator ~row:0 ();
          b_cols = 16;
          b_rows = 16;
          c_cols = 16;
          c_rows = 16;
        };
      Isa.Compute_preloaded (block ~row:0);
      Isa.Compute_accumulated (block ~row:16);
    |]
  in
  Array.iter (Gemmini.Controller.execute ctrl) cmds;
  let iters = 1_000 in
  let bytes =
    measure_alloc (fun () ->
        for _ = 1 to iters do
          Array.iter (Gemmini.Controller.execute ctrl) cmds
        done)
  in
  let per_cmd = bytes /. float_of_int (iters * Array.length cmds) in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f B per command is at most one preload record" per_cmd)
    true (per_cmd <= 80.)

let test_alloc_validate_pass () =
  (* Static checks re-run per command; passing ones cost nothing. *)
  let p = Gemmini.Params.default in
  let cmd =
    Gemmini.Isa.Mvin
      ( {
          Gemmini.Isa.dram_addr = 0x1000;
          local = Gemmini.Local_addr.scratchpad ~row:64;
          cols = 64;
          rows = 16;
        },
        1 )
  in
  let bytes =
    measure_alloc (fun () ->
        for _ = 1 to 1_000 do
          ignore (Gemmini.Params.validate_exn p);
          ignore (Gemmini.Isa.validate p cmd)
        done)
  in
  Alcotest.(check (float 0.)) "passing validation allocates nothing" 0. bytes

let test_lazy_matmul_lowering () =
  (* A BERT-FFN-sized GEMM is 20+ MB of ops when materialised. The tiled
     stream generates one K step of one output tile at a time, so reaching
     its first 1,000 ops costs a small fraction of that. *)
  let stream () =
    Gem_sw.Kernels.flatten
      (Gem_sw.Kernels.matmul_tiles Gemmini.Params.default ~a:0x10000
         ~b:0x100000 ~out:0x1000000 ~m:128 ~k:3072 ~n:768 ())
  in
  let pulled = ref 0 in
  let bytes =
    measure_alloc (fun () ->
        pulled := Seq.length (Seq.take 1_000 (stream ())))
  in
  Alcotest.(check int) "pulled 1000 ops" 1_000 !pulled;
  Alcotest.(check bool)
    (Printf.sprintf "first 1000 ops allocate %.0f B (< 1 MB)" bytes)
    true (bytes < 1e6);
  (* The lazy stream is the same program as the materialised list. *)
  let ops =
    Gem_sw.Kernels.matmul_ops Gemmini.Params.default ~a:0x10000 ~b:0x100000
      ~out:0x1000000 ~m:128 ~k:3072 ~n:768 ()
  in
  Alcotest.(check int) "same length" (List.length ops)
    (Seq.length (stream ()));
  Alcotest.(check bool) "same ops" true
    (Seq.for_all2
       (fun a b ->
         match (a, b) with
         | Soc.Insn x, Soc.Insn y -> Gemmini.Isa.equal x y
         | _ -> false)
       (List.to_seq ops) (stream ()))

(* --- determinism guard ----------------------------------------------------

   The fig7/fig9-style experiments rely on simulated-time interleaving of
   two cores over shared L2/DRAM resources. Run the same dual-core job mix
   on two freshly elaborated SoCs: finish times, and the entire rendered
   engine profile (every component's requests/busy/wait), must be
   byte-identical. *)

let test_dual_core_determinism () =
  let model = Gem_dnn.Model_zoo.(scale_model ~factor:8 squeezenet) in
  let jobs =
    [|
      (model, Runtime.Accel { im2col_on_accel = true });
      (model, Runtime.Accel { im2col_on_accel = false });
    |]
  in
  let run_once () =
    let soc = Soc.create Soc_config.dual_core in
    let rs = Runtime.run_parallel soc jobs in
    let totals = Array.map (fun r -> r.Runtime.r_total_cycles) rs in
    let profile =
      Gem_util.Table.render (Engine.utilization_table (Soc.engine soc) ())
    in
    (totals, profile)
  in
  let t1, p1 = run_once () in
  let t2, p2 = run_once () in
  Alcotest.(check (array int)) "finish times identical" t1 t2;
  Alcotest.(check string) "rendered engine profile identical" p1 p2;
  Alcotest.(check bool) "profile mentions both cores" true
    (let has s sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     has p1 "core0/mesh" && has p1 "core1/mesh")

let suite =
  [
    Alcotest.test_case "resource: zero-occupancy probe" `Quick
      test_resource_zero_occupancy;
    Alcotest.test_case "resource: next_free/occupy_until" `Quick
      test_resource_next_free_occupy;
    Alcotest.test_case "resource: reset" `Quick test_resource_reset;
    Alcotest.test_case "engine: registry and probes" `Quick
      test_engine_registry;
    Alcotest.test_case "engine: clock and stats" `Quick
      test_engine_clock_and_stats;
    Alcotest.test_case "engine: events and sinks" `Quick
      test_engine_events_and_sinks;
    Alcotest.test_case "alloc-free: Resource.acquire" `Quick
      test_alloc_free_resource_acquire;
    Alcotest.test_case "alloc-free: quiet engine acquire" `Quick
      test_alloc_free_engine_quiet;
    Alcotest.test_case "alloc-constant: timing-only DMA transfer" `Quick
      test_alloc_constant_dma_transfer;
    Alcotest.test_case "alloc-free: Cache.access hits and misses" `Quick
      test_alloc_free_cache_access;
    Alcotest.test_case "alloc-constant: mvin through a SoC port" `Quick
      test_alloc_constant_soc_mvin;
    Alcotest.test_case "alloc: timing preload/compute commands" `Quick
      test_alloc_controller_preload_compute;
    Alcotest.test_case "alloc-free: passing validation" `Quick
      test_alloc_validate_pass;
    Alcotest.test_case "lowering: lazy matmul tile stream" `Quick
      test_lazy_matmul_lowering;
    Alcotest.test_case "engine: dual-core determinism" `Quick
      test_dual_core_determinism;
  ]
