(* Reference implementation of the Theorem 2.1 translation functions and
   of their decoder: the hash-based join the library used before it built
   them flat, and the Claim 2.2 walk it decoded labels with. Each ring gets
   a hashed host enumeration; for every f in ring j of u and every w in
   ring j+1 of u, w's index in f's ring j+1 is probed and each hit is
   stored in a hashed (x, y) -> z table; the export then sorts each
   table's triples by (x, y). Tests hold the flat rows of [Structure], the
   Basic snapshot and [Structure.decode] to it. *)

module Rings = Ron_core.Rings
module Zooming = Ron_core.Zooming

(* A node list's enumeration: node -> index. *)
let index_of nodes =
  let h = Hashtbl.create (Array.length nodes) in
  Array.iteri (fun i v -> Hashtbl.replace h v i) nodes;
  h

type t = { zetas : (int * int, int) Hashtbl.t array array }

let build rings ~scales =
  let n = Rings.size rings in
  let members u j = (Rings.rings_of rings u).(j).Rings.members in
  let enums = Array.init n (fun u -> Array.init scales (fun j -> index_of (members u j))) in
  let zetas =
    Array.init n (fun u ->
        Array.init (scales - 1) (fun j ->
            let z = Hashtbl.create 64 in
            Array.iter
              (fun f ->
                let x = Hashtbl.find enums.(u).(j) f in
                Array.iter
                  (fun w ->
                    match Hashtbl.find_opt enums.(f).(j + 1) w with
                    | None -> ()
                    | Some y -> Hashtbl.replace z (x, y) (Hashtbl.find enums.(u).(j + 1) w))
                  (members u (j + 1)))
              (members u j);
            z))
  in
  { zetas }

let sorted_triples z =
  let e = Array.of_list (Hashtbl.fold (fun (x, y) z acc -> (x, y, z) :: acc) z []) in
  Array.sort compare e;
  e

(* Every segment's triples sorted by (x, y), segment (u, j) at
   [u * (scales - 1) + j]. *)
let segments t = Array.concat (Array.to_list (Array.map (Array.map sorted_triples) t.zetas))

(* The Claim 2.2 walk: [m_0 = enc.first]; [m_(j+1) = translate j ~x:m_j
   ~y:enc.rest.(j)]; the walk stops at the first null, which [translate]
   signals with a negative value. Returns [m_0 .. m_jmax]. *)
let decode_walk ~translate (enc : Zooming.encoded) =
  let acc = ref [ enc.Zooming.first ] in
  let m = ref enc.Zooming.first in
  let continue = ref true in
  let j = ref 0 in
  while !continue && !j < Array.length enc.Zooming.rest do
    let next = translate !j ~x:!m ~y:enc.Zooming.rest.(!j) in
    if next < 0 then continue := false
    else begin
      acc := next :: !acc;
      m := next;
      incr j
    end
  done;
  Array.of_list (List.rev !acc)

let decode t u label =
  decode_walk
    ~translate:(fun j ~x ~y ->
      match Hashtbl.find_opt t.zetas.(u).(j) (x, y) with Some z -> z | None -> -1)
    label

module Structure = Ron_routing.Structure

(* Row [t] of a label set, as the encoded label the walk reads. *)
let label_of (c : Structure.cols) t =
  let sm1 = c.Structure.scales - 1 in
  {
    Zooming.first = c.Structure.label_first.{t};
    rest = Array.init sm1 (fun j -> c.Structure.label_rest.{(t * sm1) + j});
  }

(* The node whose rows hold zeta_uj: node 0 below level [shared], where
   every node's are node 0's. *)
let row_owner (c : Structure.cols) u j = if j < c.Structure.shared then 0 else u

(* The walk over the flat rows, with checked reads: zeta_uj(x, y) is
   slot y of row x of ring (row_owner u j, j), or -1 for a y outside the
   row (negative, or past the row's end) and for an absent slot. Raises
   [Invalid_argument] naming the read where [Structure.decode]'s unchecked
   reads lose their footing: a position outside ring (u, j), where the
   hop reads it, or outside the ring whose rows the walk reads, which puts
   its row outside them; a slot outside z_z; or a z outside ring
   (u, j + 1) or the ring read at level j + 1. *)
let decode_rows (c : Structure.cols) u (label : Zooming.encoded) =
  let ring v j = (v * c.scales) + j in
  let size v j = c.ring_off.{ring v j + 1} - c.ring_off.{ring v j} in
  let check what j x =
    List.iter
      (fun v ->
        if x < 0 || x >= size v j then
          invalid_arg
            (Printf.sprintf "%s %d outside ring (%d, %d) of %d members" what x v j (size v j)))
      [ u; row_owner c u j ]
  in
  check "first index" 0 label.first;
  decode_walk
    ~translate:(fun j ~x ~y ->
      check "position" j x;
      let p = c.ring_off.{ring (row_owner c u j) j} + x in
      let lo = c.z_run.{p} and hi = c.z_run.{p + 1} in
      if y < 0 || y >= hi - lo then -1
      else if lo + y < 0 || lo + y >= Bigarray.Array1.dim c.z_z then
        invalid_arg
          (Printf.sprintf "slot %d of row [%d, %d), outside z_z of %d" y lo hi
             (Bigarray.Array1.dim c.z_z))
      else
        let z = c.z_z.{lo + y} in
        if z = Ron_core.Zeta.absent then -1
        else begin
          check "z" (j + 1) z;
          z
        end)
    label

(* The rows of [c] as per-segment (x, y, z) triples, one per present
   slot, segment (u, j) at [u * (scales - 1) + j], in row order: the rows
   of ring (row_owner u j, j), the ones the walk reads. *)
let of_rows (c : Structure.cols) =
  let scales = c.Structure.scales in
  Array.init
    (c.Structure.n * (scales - 1))
    (fun s ->
      let j = s mod (scales - 1) in
      let r = (row_owner c (s / (scales - 1)) j * scales) + j in
      let lo = c.Structure.ring_off.{r} in
      Array.concat
        (List.init (c.Structure.ring_off.{r + 1} - lo) (fun x ->
             let start = c.Structure.z_run.{lo + x} in
             List.init (c.Structure.z_run.{lo + x + 1} - start) (fun y ->
                 (x, y, c.Structure.z_z.{start + y}))
             |> List.filter (fun (_, _, z) -> z <> Ron_core.Zeta.absent)
             |> Array.of_list)))
