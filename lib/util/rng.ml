type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* Inlined, so that [mix], which returns an int, keeps its int64s
   unboxed and allocates nothing. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let copy t = { state = t.state }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = mix64 (bits64 t) }

(* Stateless hash combine: one SplitMix64 finalizer round over (a + gamma*b).
   Chaining [mix (mix seed q) h] gives a well-mixed pure function of the key
   tuple — no mutable state, so draws keyed this way are order-independent
   and bit-identical at any parallelism. The result is non-negative (top bit
   cleared) so it can seed [create] or be reduced by [mod]. *)
let mix a b =
  let z = Int64.add (Int64.of_int a) (Int64.mul golden_gamma (Int64.of_int b)) in
  Int64.to_int (Int64.logand (mix64 z) (Int64.of_int max_int))

(* Uniform int in [0, bound) by rejection on the top 62 bits, avoiding
   modulo bias. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.of_int max_int in
  let rec loop () =
    let r = Int64.to_int (Int64.logand (bits64 t) mask) in
    let v = r mod bound in
    if r - v + (bound - 1) < 0 then loop () else v
  in
  loop ()

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (r /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (bits64 t) 1L = 1L

let gaussian t =
  let rec u () =
    let x = float t 1.0 in
    if x = 0.0 then u () else x
  in
  let u1 = u () and u2 = float t 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let weighted_index t cumulative =
  let n = Array.length cumulative in
  if n = 0 then invalid_arg "Rng.weighted_index: empty array";
  let total = cumulative.(n - 1) in
  if not (total > 0.0) then invalid_arg "Rng.weighted_index: total must be positive";
  let x = float t total in
  (* Find the smallest index i with cumulative.(i) > x. *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cumulative.(mid) > x then search lo mid else search (mid + 1) hi
  in
  search 0 (n - 1)
