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

(* A set indexed by 16-bit positions has at most 65,535 members, so its
   positions stop at 65,534 and 0xffff is free to mark an empty slot. *)
let absent = 0xffff

let[@inline] slot (zz : u16s) y lo hi =
  if y >= 0 && y < hi - lo then
    let z = ug zz (lo + y) in
    if z = absent then -1 else z
  else -1

(* Negative iff slot [i] holds neither a position below [size] nor the
   mark: the mark wraps to 0 and a position [z] to [z + 1]. *)
let[@inline] excess (zz : u16s) size i = size - ((ug zz i + 1) land absent)

let rec first_outside zz size i e =
  if i >= e then -1 else if excess zz size i >= 0 then first_outside zz size (i + 1) e else i

(* Four slots per compare: the sign bit of the or of their excesses. *)
let rec outside_slots zz size i e =
  if i + 4 > e then first_outside zz size i e
  else if
    excess zz size i lor excess zz size (i + 1) lor excess zz size (i + 2)
    lor excess zz size (i + 3)
    >= 0
  then outside_slots zz size (i + 4) e
  else first_outside zz size i e
