type t = {
  banks : int;
  rows_per_bank : int;
  elems_per_row : int;
  data : int array array;
      (* bank -> flattened rows; [[||]] until the bank is first touched,
         so a timing-only SoC never allocates its scratchpad contents *)
  mutable reads : int;
  mutable writes : int;
}

let create ~banks ~rows_per_bank ~elems_per_row =
  if banks <= 0 || rows_per_bank <= 0 || elems_per_row <= 0 then
    invalid_arg "Sram.create: non-positive dimension";
  {
    banks;
    rows_per_bank;
    elems_per_row;
    data = Array.make banks [||];
    reads = 0;
    writes = 0;
  }

let banks t = t.banks
let rows_per_bank t = t.rows_per_bank
let elems_per_row t = t.elems_per_row
let total_rows t = t.banks * t.rows_per_bank

let check_row t row =
  if row < 0 || row >= total_rows t then
    invalid_arg (Printf.sprintf "Sram: row %d out of range [0,%d)" row (total_rows t))

let bank_of_row t row =
  check_row t row;
  row / t.rows_per_bank

let bank_words t = t.rows_per_bank * t.elems_per_row

(* The bank's storage, allocated (zeroed) on first touch. *)
let bank_data t bank =
  let d = t.data.(bank) in
  if Array.length d > 0 then d
  else begin
    let d = Array.make (bank_words t) 0 in
    t.data.(bank) <- d;
    d
  end

let locate t row =
  check_row t row;
  let bank = row / t.rows_per_bank in
  let local = row mod t.rows_per_bank in
  (bank_data t bank, local * t.elems_per_row)

let read_row t ~row =
  let bank, off = locate t row in
  t.reads <- t.reads + 1;
  Array.sub bank off t.elems_per_row

let read_elem t ~row ~col =
  if col < 0 || col >= t.elems_per_row then invalid_arg "Sram.read_elem: bad col";
  let bank, off = locate t row in
  t.reads <- t.reads + 1;
  bank.(off + col)

let write_row t ~row src =
  if Array.length src > t.elems_per_row then
    invalid_arg "Sram.write_row: source wider than row";
  let bank, off = locate t row in
  t.writes <- t.writes + 1;
  let n = Array.length src in
  Array.blit src 0 bank off n;
  Array.fill bank (off + n) (t.elems_per_row - n) 0

let write_elem t ~row ~col v =
  if col < 0 || col >= t.elems_per_row then invalid_arg "Sram.write_elem: bad col";
  let bank, off = locate t row in
  t.writes <- t.writes + 1;
  bank.(off + col) <- v

let accumulate_row t ~row src =
  if Array.length src > t.elems_per_row then
    invalid_arg "Sram.accumulate_row: source wider than row";
  let bank, off = locate t row in
  t.writes <- t.writes + 1;
  Array.iteri
    (fun i v -> bank.(off + i) <- Gem_util.Fixed.sat32 (bank.(off + i) + v))
    src

(* Untouched banks already read as zeros, so filling with 0 only has to
   clear the banks that exist. *)
let fill t v =
  for bank = 0 to t.banks - 1 do
    if v <> 0 || Array.length t.data.(bank) > 0 then
      Array.fill (bank_data t bank) 0 (bank_words t) v
  done

let reads t = t.reads
let writes t = t.writes

let reset_stats t =
  t.reads <- 0;
  t.writes <- 0

module J = Gem_util.Jsonx
module Snap = Gem_util.Snap

let snapshot ?(with_data = false) t =
  let base =
    [ ("banks", J.Int t.banks);
      ("rows_per_bank", J.Int t.rows_per_bank);
      ("elems_per_row", J.Int t.elems_per_row);
      ("reads", J.Int t.reads);
      ("writes", J.Int t.writes) ]
  in
  let fields =
    if with_data then
      base
      @ [
          ( "data",
            J.List
              (List.init t.banks (fun bank ->
                   let d = t.data.(bank) in
                   Snap.of_int_array
                     (if Array.length d > 0 then d
                      else Array.make (bank_words t) 0))) );
        ]
    else base
  in
  J.Obj fields

let restore t j =
  Snap.check ~what:"sram geometry"
    (Snap.get_int "banks" j = t.banks
    && Snap.get_int "rows_per_bank" j = t.rows_per_bank
    && Snap.get_int "elems_per_row" j = t.elems_per_row);
  t.reads <- Snap.get_int "reads" j;
  t.writes <- Snap.get_int "writes" j;
  match Gem_util.Jsonx.member "data" j with
  | None -> ()
  | Some d ->
      let banks = List.map Snap.int_array (Snap.list d) in
      Snap.check ~what:"sram bank count" (List.length banks = t.banks);
      List.iteri
        (fun i bank ->
          Snap.check ~what:"sram bank size" (Array.length bank = bank_words t);
          (* An all-zero bank stays unallocated: it reads as zeros. *)
          if Array.length t.data.(i) > 0 || Array.exists (( <> ) 0) bank then
            Array.blit bank 0 (bank_data t i) 0 (Array.length bank))
        banks
