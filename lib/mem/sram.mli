(** Banked SRAM model — the substrate for Gemmini's scratchpad and
    accumulator memories.

    The memory is organized as [banks] banks of [rows_per_bank] rows, each
    row holding [elems_per_row] integer elements (int8 for the scratchpad,
    int32 for the accumulator). Rows are addressed with a flat row index
    whose high bits select the bank, exactly like Gemmini's local scratchpad
    addresses. The functional model stores real values; access counters feed
    the statistics surface. Each bank's storage is allocated on first
    access, so a timing-only run (which never reads or writes contents)
    holds none; untouched rows read as zeros. *)

type t

val create : banks:int -> rows_per_bank:int -> elems_per_row:int -> t

val banks : t -> int
val rows_per_bank : t -> int
val elems_per_row : t -> int
val total_rows : t -> int
val bank_of_row : t -> int -> int

val read_row : t -> row:int -> int array
(** Copy of the row's elements. Raises [Invalid_argument] on bad row. *)

val read_elem : t -> row:int -> col:int -> int

val write_row : t -> row:int -> int array -> unit
(** Writes a full row. The source array may be shorter than the row, in
    which case remaining elements are zero-filled (hardware pads mvins). *)

val write_elem : t -> row:int -> col:int -> int -> unit

val accumulate_row : t -> row:int -> int array -> unit
(** Element-wise saturating int32 addition into the row — the accumulator
    write path when the accumulate bit is set. *)

val fill : t -> int -> unit
(** Set every element of every row. *)

val reads : t -> int
val writes : t -> int
val reset_stats : t -> unit

val snapshot : ?with_data:bool -> t -> Gem_util.Jsonx.t
(** Geometry + access counters; [~with_data:true] additionally serializes
    the full contents (functional mode — timing-only runs never write
    data, so the default skips the arrays). *)

val restore : t -> Gem_util.Jsonx.t -> unit
(** Restores counters (and contents when present) from a {!snapshot} of an
    identically-shaped SRAM; raises {!Gem_util.Snap.Malformed} otherwise. *)
