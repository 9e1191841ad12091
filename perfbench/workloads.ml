(* The four workloads. Each runs in a closed loop (a job starts when the
   previous one returns) for the measuring window, checks every simulated
   output against the pinned references, and reports the end-to-end
   metrics; the traced variant reports the per-layer metrics. *)

open Gem_sw
module Soc = Gem_soc.Soc
module Soc_config = Gem_soc.Soc_config
module Zoo = Gem_dnn.Model_zoo

let mode = Micro.mode
let slug = Micro.net_slug
let name_of (m : Gem_dnn.Layer.model) = m.Gem_dnn.Layer.model_name
let ints xs = String.concat "," (List.map string_of_int xs)
let pct_err ~est ~ref_ = 100. *. float_of_int (est - ref_) /. float_of_int ref_

(* One closed-loop job: host seconds, simulated cycles, jobs completed
   (inferences, served requests or design points). *)
type sample = { host_s : float; cycles : int; count : int }

let whole host_s cycles count = { host_s; cycles; count }

(* One kind of job: runs a job and times it. *)
type kind = unit -> sample

(* Runs the kinds in turn until no further job fits in [seconds]; every kind
   runs at least once. A job's own clock starts when the previous returns. *)
let closed_loop ~seconds kinds =
  let kinds = Array.of_list kinds in
  let n = Array.length kinds in
  let samples = Array.make n [] in
  let t0 = Clock.now () in
  let rec go i idle =
    if idle < n then begin
      let k = i mod n in
      let fits =
        samples.(k) = []
        || Clock.now () -. t0
           +. Clock.median (List.map (fun s -> s.host_s) samples.(k))
           <= seconds
      in
      if fits then begin
        samples.(k) <- kinds.(k) () :: samples.(k);
        go (i + 1) 0
      end
      else go (i + 1) (idle + 1)
    end
  in
  go 0 0;
  Array.to_list samples

(* A pass at median speed: for each kind the median per-job rate, combined
   as the work of one job of every kind over its time. *)
let pass_rate samples f =
  let work, time =
    List.fold_left
      (fun (w, t) ss ->
        let per = Clock.median (List.map (fun s -> f s /. s.host_s) ss) in
        let w_k = Clock.median (List.map f ss) in
        (w +. w_k, t +. (w_k /. per)))
      (0., 0.) samples
  in
  work /. time

let throughput samples =
  [
    ("sim_mcycles_per_s", pass_rate samples (fun s -> float_of_int s.cycles /. 1e6), "Mcycles/s");
    ("jobs_per_s", pass_rate samples (fun s -> float_of_int s.count), "1/s");
  ]

(* --- per-layer counters read off a finished SoC ------------------------- *)

type counters = (string, float) Hashtbl.t

let bump (c : counters) k v =
  Hashtbl.replace c k (v +. Option.value ~default:0. (Hashtbl.find_opt c k))

let soc_counters (c : counters) soc =
  let l2 = Soc.l2 soc and dram = Soc.dram soc in
  let f = float_of_int in
  bump c "l2.accesses" (f (Gem_mem.Cache.accesses l2));
  bump c "l2.hits" (f (Gem_mem.Cache.hits l2));
  List.iter
    (fun (s : Gem_sim.Engine.stat) ->
      if s.Gem_sim.Engine.stat_name = "l2-port" then
        bump c "l2_port.wait_mcycles" (f s.Gem_sim.Engine.stat_wait /. 1e6))
    (Gem_sim.Engine.stats (Soc.engine soc));
  bump c "dram.requests" (f (Gem_mem.Dram.requests dram));
  bump c "dram.mbytes"
    (Clock.mb (f (Gem_mem.Dram.bytes_read dram + Gem_mem.Dram.bytes_written dram)));
  Array.iter
    (fun core ->
      let h = Soc.tlb core in
      bump c "tlb.requests" (f (Gem_vm.Hierarchy.requests h));
      bump c "tlb.walks" (f (Gem_vm.Hierarchy.walks h));
      bump c "tlb.stall_cycles" (f (Gem_vm.Hierarchy.translation_stall_cycles h));
      let ctl = Soc.controller core in
      let dma = Gemmini.Controller.dma ctl in
      bump c "dma.row_requests" (f (Gemmini.Dma.row_requests dma));
      bump c "dma.mbytes" (Clock.mb (f (Gemmini.Dma.bytes_in dma + Gemmini.Dma.bytes_out dma)));
      let st = Gemmini.Controller.stats ctl in
      bump c "controller.insns" (f st.Gemmini.Controller.insns);
      bump c "controller.macs" (f st.Gemmini.Controller.macs))
    (Soc.cores soc)

(* --- workload definition ------------------------------------------------ *)

type t = {
  w_name : string;
  setup : seed:int -> float;  (** median seconds before the first simulated op *)
  kinds : Refs.t -> seed:int -> kind list;
  analytic_err_pct : Refs.t -> float;
      (** max |signed error| of the analytic twin against the cycle engine *)
  traced_pass : Refs.t -> seed:int -> Spans.t -> counters -> unit;
      (** the quiet pass's calls, wrapped in spans; compared with a quiet
          pass for the tracing overhead *)
  traced_extra : Refs.t -> seed:int -> Spans.t -> counters -> unit;
      (** traced-only work outside that comparison (lowering/execution
          split, per-point evaluation) *)
}

(* Set-up is timed as the median of repeated set-ups within a run. *)
let setup_time f = Clock.median_time_within ~budget:0.5 f

(* --- zoo-1core ------------------------------------------------------------ *)

let zoo_nets = [ Zoo.mobilenetv2; Zoo.bert ]

let zoo_refs refs (m : Gem_dnn.Layer.model) (r : Runtime.result) =
  let key = "zoo." ^ slug (name_of m) in
  Refs.check_all refs
    [
      (key ^ ".total", string_of_int r.Runtime.r_total_cycles);
      (key ^ ".layers", ints (List.map (fun l -> l.Runtime.lr_cycles) r.Runtime.r_layers));
    ]

let zoo_job refs m () =
  let soc = Soc.create Soc_config.default in
  let r = Runtime.run soc ~core:0 m ~mode in
  (r.Runtime.r_total_cycles, Refs.bad (zoo_refs refs m r))

(* One timed job of [jobs] jobs; a failed pass keeps its host time. *)
let sample_of ?jobs name f =
  let t0 = Clock.now () in
  let r = Refs.job ?jobs name f in
  let host_s = Clock.now () -. t0 in
  (r, host_s)

let zoo_kinds refs =
  List.map
    (fun m () ->
      let r, host_s = sample_of (name_of m) (zoo_job refs m) in
      whole host_s (Option.value r ~default:0) 1)
    zoo_nets

let analytic_estimates config jobs =
  Array.map
    (fun r -> r.Runtime.r_total_cycles)
    (Backend_analytic.run (Backend.request ~config jobs))

let max_abs = List.fold_left (fun acc e -> Float.max acc (Float.abs e)) 0.

let zoo_err_over refs nets =
  max_abs
    (List.map
       (fun m ->
         let est = (analytic_estimates Soc_config.default [| (m, mode) |]).(0) in
         pct_err ~est ~ref_:(Refs.int refs ("zoo." ^ slug (name_of m) ^ ".total")))
       nets)

(* Lowering forced into an array, then executed: must reproduce the pinned
   cycles of the quiet run. *)
let split_single refs tr c m =
  let soc = Soc.create Soc_config.default in
  let core = Soc.core soc 0 in
  let a0 = Clock.allocated () in
  let ops =
    Spans.with_span tr "lowering" (fun () ->
        Array.of_seq (Runtime.plan_ops soc core m ~mode ~records:(ref [])))
  in
  bump c "runtime.lower_mb" (Clock.mb (Clock.allocated () -. a0));
  let finish =
    Spans.with_span tr "execution" (fun () ->
        Soc.run_program soc core (Array.to_seq ops))
  in
  bump c "soc.ops" (float_of_int (Array.length ops));
  ignore
    (Refs.job ("split " ^ name_of m) (fun () ->
         ( (),
           Refs.bad
             (Refs.check refs ("zoo." ^ slug (name_of m) ^ ".total") (string_of_int finish)) )))

(* Per-layer spans cut at the runtime's [on_layer] callbacks: host time and
   allocation between two callbacks belong to the layer just fenced. *)
let zoo_traced refs tr c =
  List.iter
    (fun m ->
      Spans.with_span ~new_job:true tr (name_of m) (fun () ->
          let soc = Soc.create Soc_config.default in
          let last_t = ref (Spans.clock tr) and last_a = ref (Clock.allocated ()) in
          let on_layer ~layer:_ ~records ~finish:_ =
            let t = Spans.clock tr and a = Clock.allocated () in
            (match List.rev records with
            | (l : Runtime.layer_record) :: _ ->
                let cls = Gem_dnn.Layer.class_name l.Runtime.lr_class in
                Spans.add tr ~name:("layer:" ^ l.Runtime.lr_name) ~t0:!last_t ~t1:t;
                let key k = Printf.sprintf "layer.%s.%s" cls k in
                bump c (key "host_s") (t -. !last_t);
                bump c (key "alloc_mb") (Clock.mb (a -. !last_a));
                bump c (key "sim_mcycles") (float_of_int l.Runtime.lr_cycles /. 1e6)
            | [] -> ());
            (* the next layer is measured without this callback's cost *)
            last_a := Clock.allocated ();
            last_t := Spans.clock tr
          in
          ignore
            (Refs.job (name_of m) (fun () ->
                 let r = Runtime.run ~on_layer soc ~core:0 m ~mode in
                 ((), Refs.bad (zoo_refs refs m r))));
          soc_counters c soc))
    zoo_nets

(* Tensor allocation; the returned stream is lazy and left unconsumed. *)
let allocate soc core m =
  let (_ : Kernels.op Seq.t) = Runtime.plan_ops soc core m ~mode ~records:(ref []) in
  ()

let zoo_setup () =
  List.fold_left
    (fun acc m ->
      acc
      +. setup_time (fun () ->
             let soc = Soc.create Soc_config.default in
             allocate soc (Soc.core soc 0) m))
    0. zoo_nets

let zoo_1core =
  {
    w_name = "zoo-1core";
    setup = (fun ~seed:_ -> zoo_setup ());
    kinds = (fun refs ~seed:_ -> zoo_kinds refs);
    analytic_err_pct = (fun refs -> zoo_err_over refs zoo_nets);
    traced_pass = (fun refs ~seed:_ -> zoo_traced refs);
    traced_extra =
      (fun refs ~seed:_ tr c ->
        (* mobilenetv2 only: bert's 6.7 M ops held in one array take
           gigabytes *)
        Spans.with_span ~new_job:true tr "split" (fun () ->
            split_single refs tr c Zoo.mobilenetv2));
  }

(* --- contend-2core ------------------------------------------------------- *)

let contend_nets = [ Zoo.mobilenetv2; Zoo.squeezenet ]
let contend_key m core = Printf.sprintf "contend.%s.core%d" (slug (name_of m)) core
let pair m = [| (m, mode); (m, mode) |]

let contend_check refs m finishes =
  Refs.check_all refs
    (List.mapi (fun i f -> (contend_key m i, string_of_int f)) (Array.to_list finishes))

let contend_job refs m () =
  let soc = Soc.create Soc_config.dual_core in
  let finishes =
    Array.map (fun r -> r.Runtime.r_total_cycles) (Runtime.run_parallel soc (pair m))
  in
  ((Array.fold_left max 0 finishes, soc), 2 * Refs.bad (contend_check refs m finishes))

let contend_kinds refs =
  List.map
    (fun m () ->
      let r, host_s = sample_of ~jobs:2 (name_of m) (contend_job refs m) in
      whole host_s (match r with Some (c, _) -> c | None -> 0) 2)
    contend_nets

let contend_err refs =
  max_abs
    (List.concat_map
       (fun m ->
         Array.to_list
           (Array.mapi
              (fun core est -> pct_err ~est ~ref_:(Refs.int refs (contend_key m core)))
              (analytic_estimates Soc_config.dual_core (pair m))))
       contend_nets)

let contend_setup () =
  List.fold_left
    (fun acc m ->
      acc
      +. setup_time (fun () ->
             let soc = Soc.create Soc_config.dual_core in
             Array.iter
               (fun core -> allocate soc core m)
               (Soc.cores soc)))
    0. contend_nets

let contend_traced refs tr c =
  List.iter
    (fun m ->
      Spans.with_span ~new_job:true tr (name_of m ^ "x2") (fun () ->
          match Refs.job ~jobs:2 (name_of m) (contend_job refs m) with
          | Some (_, soc) -> soc_counters c soc
          | None -> ()))
    contend_nets

(* Both cores' streams lowered into arrays, then run by the multi-core
   coordinator: must reproduce the pinned per-core cycles. *)
let split_pair refs tr c m =
  let soc = Soc.create Soc_config.dual_core in
  let a0 = Clock.allocated () in
  let ops =
    Spans.with_span tr "lowering" (fun () ->
        Array.map
          (fun core -> Array.of_seq (Runtime.plan_ops soc core m ~mode ~records:(ref [])))
          (Soc.cores soc))
  in
  bump c "runtime.lower_mb" (Clock.mb (Clock.allocated () -. a0));
  let finishes =
    Spans.with_span tr "execution" (fun () ->
        Soc.run_parallel soc (Array.map Array.to_seq ops))
  in
  Array.iter (fun o -> bump c "soc.ops" (float_of_int (Array.length o))) ops;
  ignore
    (Refs.job ~jobs:2 ("split " ^ name_of m) (fun () ->
         ((), 2 * Refs.bad (contend_check refs m finishes))))

let contend_2core =
  {
    w_name = "contend-2core";
    setup = (fun ~seed:_ -> contend_setup ());
    kinds = (fun refs ~seed:_ -> contend_kinds refs);
    analytic_err_pct = contend_err;
    traced_pass = (fun refs ~seed:_ -> contend_traced refs);
    traced_extra =
      (fun refs ~seed:_ tr c ->
        Spans.with_span ~new_job:true tr "split" (fun () ->
            List.iter (split_pair refs tr c) contend_nets));
  }

(* --- serve-2core --------------------------------------------------------- *)

(* Each pass serves [serve_requests] Poisson arrivals in a fixed window: a
   Poisson process conditioned on its count places its arrivals uniformly,
   so every pass offers the same load and only the arrival pattern varies.
   Arrival seeds come from a pinned space of [serve_seeds], so every serving
   report has a reference recorded at pin time. *)
let serve_seeds = 32
let serve_requests = 40
let serve_window_ms = 20.0

(* Where generated arrival traces (and the traced run's spans) are written. *)
let out_dir = ref "_perfbench"

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let serve_arrivals sub =
  let window = Gem_serve.Slo.cycles_of_ms serve_window_ms in
  let rng = Gem_util.Rng.create ~seed:(0x5e7e + sub) in
  let times = Array.init serve_requests (fun _ -> Gem_util.Rng.int rng window) in
  Array.sort compare times;
  ensure_dir !out_dir;
  let path = Filename.concat !out_dir (Printf.sprintf "arrivals-s%02d.txt" sub) in
  let oc = open_out path in
  Array.iter (Printf.fprintf oc "%d\n") times;
  close_out oc;
  path

let serve_scenario ?(backend = Backend.Cycle) ?(empty = false) sub =
  {
    Gem_serve.Serve.sv_model = "squeezenet1.1";
    sv_scale = 8;
    sv_soc = Gem_serve.Serve.config_for ~cores:2 Gemmini.Params.default;
    sv_backend = backend;
    sv_mode = mode;
    sv_arrival =
      (if empty then Gem_serve.Arrival.Poisson { rate_rps = 2000. }
       else Gem_serve.Arrival.Trace (serve_arrivals sub));
    sv_seed = sub;
    sv_batch = Gem_serve.Batch.Fixed 4;
    sv_slos_ms = [ 1.0 ];
    sv_duration_ms = (if empty then 0. else serve_window_ms);
    sv_warmup = true;
  }

(* The arrival seed of pass [i] of a run with benchmark seed [seed]. *)
let serve_sub ~seed i =
  let rng = Gem_util.Rng.create ~seed:((seed * 1_000_003) + i) in
  Gem_util.Rng.int rng serve_seeds

let serve_fields (r : Gem_serve.Serve.result) =
  let rp = r.Gem_serve.Serve.sr_report in
  let lat = rp.Gem_serve.Slo.rp_latency in
  let fl x = Printf.sprintf "%.17g" x in
  [
    ("offered", string_of_int rp.Gem_serve.Slo.rp_offered);
    ("completed", string_of_int rp.Gem_serve.Slo.rp_completed);
    ("horizon", string_of_int rp.Gem_serve.Slo.rp_horizon);
    ("p50", fl lat.Gem_util.Stats.Histogram.p50);
    ("p95", fl lat.Gem_util.Stats.Histogram.p95);
    ("max", fl lat.Gem_util.Stats.Histogram.max);
    ("batches", string_of_int (List.length r.Gem_serve.Serve.sr_dispatches));
    ("per_core", ints (List.map snd rp.Gem_serve.Slo.rp_per_core));
  ]

let serve_key sub field = Printf.sprintf "serve.s%02d.%s" sub field

(* The report is pinned as a whole, so a mismatch fails every request. *)
let serve_job ?attach refs sub () =
  let r = Gem_serve.Serve.run ?attach (serve_scenario sub) in
  let ok =
    Refs.check_all refs (List.map (fun (f, v) -> (serve_key sub f, v)) (serve_fields r))
  in
  (r, serve_requests * Refs.bad ok)

let serve_sample r host_s =
  match r with
  | Some (r : Gem_serve.Serve.result) ->
      let rp = r.Gem_serve.Serve.sr_report in
      whole host_s rp.Gem_serve.Slo.rp_horizon rp.Gem_serve.Slo.rp_completed
  | None -> whole host_s 0 0

let serve_kinds refs ~seed =
  let pass = ref 0 in
  [
    (fun () ->
      let sub = serve_sub ~seed !pass in
      incr pass;
      let r, host_s = sample_of ~jobs:serve_requests "serve" (serve_job refs sub) in
      serve_sample r host_s);
  ]

(* The analytic twin's serving latencies (p50, p95, max) against the cycle
   engine's pinned reports, over every scenario of the pinned seed space. *)
let serve_err refs =
  max_abs
    (List.concat_map
       (fun sub ->
         let est =
           serve_fields (Gem_serve.Serve.run (serve_scenario ~backend:Backend.Analytic sub))
         in
         List.map
           (fun f ->
             let e = float_of_string (List.assoc f est) in
             let r = float_of_string (Refs.value refs (serve_key sub f)) in
             100. *. (e -. r) /. r)
           [ "p50"; "p95"; "max" ])
       (List.init serve_seeds Fun.id))

let serve_traced refs ~seed tr c =
  let sub = serve_sub ~seed 0 in
  let soc = ref None in
  let r =
    Spans.with_span ~new_job:true tr "serve" (fun () ->
        Refs.job ~jobs:serve_requests "serve"
          (serve_job ~attach:(fun s -> soc := Some s) refs sub))
  in
  Option.iter (soc_counters c) !soc;
  Option.iter
    (fun (r : Gem_serve.Serve.result) ->
      let rp = r.Gem_serve.Serve.sr_report in
      let completed = float_of_int rp.Gem_serve.Slo.rp_completed in
      bump c "serve.completed" completed;
      bump c "serve.batches" (float_of_int (List.length r.Gem_serve.Serve.sr_dispatches));
      bump c "serve.host_ms_per_request"
        (1e3 *. Spans.duration_of tr "serve" /. Float.max 1. completed))
    r

(* An empty arrival window: SoC elaboration, sessions and the warm-up. *)
let serve_setup () =
  setup_time (fun () ->
      let r = Gem_serve.Serve.run (serve_scenario ~empty:true 0) in
      if r.Gem_serve.Serve.sr_report.Gem_serve.Slo.rp_offered <> 0 then
        failwith "perfbench: serve setup window is not empty")

let serve_2core =
  {
    w_name = "serve-2core";
    setup = (fun ~seed:_ -> serve_setup ());
    kinds = serve_kinds;
    analytic_err_pct = serve_err;
    traced_pass = serve_traced;
    traced_extra = (fun _ ~seed:_ _ _ -> ());
  }

(* --- dse-analytic -------------------------------------------------------- *)

let dse_dims = [ 8; 16; 32 ]
let dse_sp_kb = [| 128; 256; 512 |]
let dse_acc_kb = [| 32; 64; 128 |]
let dse_per_cell = 17

type dse_point = { key : string; point : Gem_dse.Point.t }

let dse_point ~model ~cores ~dim ~sp ~acc =
  let accel =
    Gemmini.Params.with_memories ~sp_capacity_bytes:(sp * 1024)
      ~acc_capacity_bytes:(acc * 1024)
      { Gemmini.Params.default with mesh_rows = dim; mesh_cols = dim }
  in
  let soc = if cores = 1 then Soc_config.default else Soc_config.dual_core in
  let key = Printf.sprintf "dse.%s.c%d.d%d.sp%d.acc%d" (slug model) cores dim sp acc in
  {
    key;
    point =
      Gem_dse.Point.with_accel accel
        (Gem_dse.Point.make ~label:key ~soc ~model ~scale:1 ~backend:Backend.Analytic ());
  }

(* Every (model, cores, dim) cell gets the same number of points, so the
   pass's cost does not hinge on the draw; scratchpad and accumulator sizes
   are drawn from the seed. *)
let dse_points ~seed =
  let rng = Gem_util.Rng.create ~seed in
  Array.of_list
    (List.concat_map
       (fun model ->
         List.concat_map
           (fun cores ->
             List.concat_map
               (fun dim ->
                 List.init dse_per_cell (fun _ ->
                     dse_point ~model ~cores ~dim ~sp:(Gem_util.Rng.pick rng dse_sp_kb)
                       ~acc:(Gem_util.Rng.pick rng dse_acc_kb)))
               dse_dims)
           [ 1; 2 ])
       Zoo.names)

let outcome_value (o : Gem_dse.Outcome.t) =
  Printf.sprintf "%d:%s" o.Gem_dse.Outcome.total_cycles
    (ints (Array.to_list o.Gem_dse.Outcome.per_core_cycles))

let dse_kinds refs ~seed =
  let points = dse_points ~seed in
  [
    (fun () ->
      let r, host_s =
        sample_of ~jobs:(Array.length points) "dse" (fun () ->
            let run = Gem_dse.Exec.run ~cache:None (Array.map (fun p -> p.point) points) in
            let results = run.Gem_dse.Exec.results in
            let bad =
              if Array.length results <> Array.length points then Array.length points
              else
                Array.fold_left ( + ) 0
                  (Array.mapi
                     (fun i (_, o) -> Refs.bad (Refs.check refs points.(i).key (outcome_value o)))
                     results)
            in
            (results, bad))
      in
      match r with
      | Some results ->
          whole host_s
            (Array.fold_left (fun acc (_, o) -> acc + o.Gem_dse.Outcome.total_cycles) 0 results)
            (Array.length results)
      | None -> whole host_s 0 0);
  ]

(* Every point evaluated on its own, one span each. *)
let dse_traced_extra refs ~seed tr c =
  let points = dse_points ~seed in
  let times =
    Spans.with_span ~new_job:true tr "evaluate" (fun () ->
        Array.to_list
          (Array.map
             (fun p ->
               let t0 = Spans.clock tr in
               ignore
                 (Refs.job p.key (fun () ->
                      let o = Gem_dse.Exec.evaluate p.point in
                      ((), Refs.bad (Refs.check refs p.key (outcome_value o)))));
               let t1 = Spans.clock tr in
               Spans.add tr ~name:("point:" ^ p.key) ~t0 ~t1;
               t1 -. t0)
             points))
  in
  bump c "dse.evaluate_ms_p50" (1e3 *. Clock.median times);
  bump c "dse.evaluate_ms_p99" (1e3 *. Clock.percentile times 99.)

let dse_traced refs ~seed tr _c =
  Spans.with_span ~new_job:true tr "dse" (fun () ->
      ignore ((List.hd (dse_kinds refs ~seed)) ()))

let dse_analytic =
  {
    w_name = "dse-analytic";
    setup =
      (fun ~seed -> setup_time (fun () -> ignore (dse_points ~seed)));
    kinds = dse_kinds;
    analytic_err_pct = (fun refs -> zoo_err_over refs Zoo.all);
    traced_pass = dse_traced;
    traced_extra = dse_traced_extra;
  }

let all = [ zoo_1core; contend_2core; serve_2core; dse_analytic ]
