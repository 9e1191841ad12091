(* Host-side measurement helpers: wall clock, allocation, order statistics. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Bytes allocated so far by this Domain. A minor collection first makes the
   OCaml 5 arena accounting exact at the sampling point. *)
let allocated () =
  Gc.minor ();
  Gc.allocated_bytes ()

let sorted xs = List.sort compare xs

let median = function
  | [] -> invalid_arg "Clock.median: no samples"
  | xs ->
      let a = Array.of_list (sorted xs) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile xs p =
  match xs with
  | [] -> invalid_arg "Clock.percentile: no samples"
  | xs ->
      let a = Array.of_list (sorted xs) in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

(* Median host seconds of [reps] calls of [f]. *)
let median_time ~reps f =
  median (List.init reps (fun _ -> snd (timed f)))

(* Median host seconds of [f] over at least 5 calls, repeated up to 51
   calls while the calls so far took less than [budget] seconds. *)
let median_time_within ~budget f =
  let rec go acc n spent =
    if n >= 51 || (n >= 5 && spent >= budget) then median acc
    else
      let dt = snd (timed f) in
      go (dt :: acc) (n + 1) (spent +. dt)
  in
  go [] 0 0.

let mb bytes = bytes /. 1e6

(* OCaml heap high-water of this process so far, in MB. *)
let peak_heap_mb () =
  let s = Gc.quick_stat () in
  mb (float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)))
