module A1 = Bigarray.Array1

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t
type u16s = (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) A1.t
type sink = { run : ints; zy : u16s; zz : u16s }

let max_members = 0xffff
let u16s n : u16s = A1.create Bigarray.int16_unsigned Bigarray.c_layout n

let sink ~rows ~entries =
  let run = A1.create Bigarray.int Bigarray.c_layout (rows + 1) in
  run.{rows} <- entries;
  { run; zy = u16s entries; zz = u16s entries }

let counting = sink ~rows:0 ~entries:0

(* The column type is annotated so the reads compile inline, not as calls
   to the generic Bigarray accessor. *)
let[@inline] ug (a : u16s) i = A1.unsafe_get a i

(* Rows shorter than this finish with a forward scan: a few sequential
   reads cost less than the mispredicted branches of the last halvings. *)
let scan_below = 16

let rec scan (zy : u16s) (zz : u16s) y i hi =
  if i >= hi then -1
  else
    let v = ug zy i in
    if v < y then scan zy zz y (i + 1) hi else if v = y then ug zz i else -1

let rec find (zy : u16s) (zz : u16s) y lo hi =
  if hi - lo < scan_below then scan zy zz y lo hi
  else begin
    let mid = (lo + hi) / 2 in
    let v = ug zy mid in
    if v < y then find zy zz y (mid + 1) hi else if v > y then find zy zz y lo mid else ug zz mid
  end
