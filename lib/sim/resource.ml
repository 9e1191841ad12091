(* Queue-wait histogram geometry: 64 buckets of 64 cycles, waits of
   [wait_range] = 4096 cycles or more clamped into the last. For an int
   wait this is exactly the bucket [Stats.Histogram.add] picks with
   [~buckets:64 ~range:4096.], so summaries match an event-built one. *)
let wait_buckets = 64
let wait_bucket_shift = 6
let wait_range = wait_buckets lsl wait_bucket_shift

type t = {
  name : string;
  mutable busy_until : Time.cycles;
  mutable busy_cycles : Time.cycles;
  mutable requests : int;
  mutable wait_cycles : Time.cycles;
  (* Host-side observability, not simulated state: never snapshotted,
     never overwritten by [force_state]. *)
  wait_counts : int array;
  mutable wait_max : Time.cycles;
}

let create ~name =
  {
    name;
    busy_until = 0;
    busy_cycles = 0;
    requests = 0;
    wait_cycles = 0;
    wait_counts = Array.make wait_buckets 0;
    wait_max = 0;
  }

let name t = t.name

let record_wait t w =
  let b = w lsr wait_bucket_shift in
  let b = if b >= wait_buckets then wait_buckets - 1 else b in
  t.wait_counts.(b) <- t.wait_counts.(b) + 1;
  if w > t.wait_max then t.wait_max <- w

let acquire t ~now ~occupancy =
  if occupancy < 0 then invalid_arg "Resource.acquire: negative occupancy";
  let start = max now t.busy_until in
  t.wait_cycles <- t.wait_cycles + (start - now);
  record_wait t (start - now);
  t.requests <- t.requests + 1;
  (* A zero-occupancy request is a probe of the service slot: it must not
     advance [busy_until], or a later probe would make earlier-in-time
     requesters queue behind simulated time that was never occupied. *)
  if occupancy > 0 then begin
    t.busy_until <- start + occupancy;
    t.busy_cycles <- t.busy_cycles + occupancy
  end;
  start + occupancy

let next_free t ~now = max now t.busy_until

let occupy_until t ~now ~start ~until =
  if start < now then invalid_arg "Resource.occupy_until: start before now";
  if until < start then invalid_arg "Resource.occupy_until: until before start";
  t.wait_cycles <- t.wait_cycles + (start - now);
  record_wait t (start - now);
  t.requests <- t.requests + 1;
  if until > start then begin
    t.busy_cycles <- t.busy_cycles + (until - start);
    if until > t.busy_until then t.busy_until <- until
  end

let busy_until t = t.busy_until
let busy_cycles t = t.busy_cycles
let requests t = t.requests
let wait_cycles t = t.wait_cycles

let wait_samples t = Array.fold_left ( + ) 0 t.wait_counts

let wait_histogram t =
  Gem_util.Stats.Histogram.of_counts ~range:(float_of_int wait_range)
    t.wait_counts ~max:(float_of_int t.wait_max)

let utilization t ~horizon =
  if horizon <= 0 then 0.
  else float_of_int t.busy_cycles /. float_of_int horizon

let reset t =
  t.busy_until <- 0;
  t.busy_cycles <- 0;
  t.requests <- 0;
  t.wait_cycles <- 0;
  Array.fill t.wait_counts 0 wait_buckets 0;
  t.wait_max <- 0

let force_state t ~busy_until ~busy_cycles ~requests ~wait_cycles =
  t.busy_until <- busy_until;
  t.busy_cycles <- busy_cycles;
  t.requests <- requests;
  t.wait_cycles <- wait_cycles
