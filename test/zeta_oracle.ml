(* Reference implementation of the Theorem 2.1 translation functions: the
   hash-based join the library used before it built them flat. Each ring
   gets a hashed host enumeration; for every f in ring j of u and every w
   in ring j+1 of u, w's index in f's ring j+1 is probed and each hit is
   stored in a hashed (x, y) -> z table; the export then sorts each
   table's triples by (x, y). Tests hold the flat columns of [Structure]
   and the Basic snapshot to it. *)

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

let decode t u label =
  Zooming.decode_walk
    ~translate:(fun j ~x ~y ->
      match Hashtbl.find_opt t.zetas.(u).(j) (x, y) with Some z -> z | None -> -1)
    label

(* The flat columns [(off, xs, ys, zs)] as per-segment triple arrays. *)
let of_columns (off : (int, _, _) Bigarray.Array1.t) xs ys zs =
  Array.init
    (Bigarray.Array1.dim off - 1)
    (fun s ->
      Array.init (off.{s + 1} - off.{s}) (fun k ->
          let i = off.{s} + k in
          (xs.{i}, ys.{i}, zs.{i})))
