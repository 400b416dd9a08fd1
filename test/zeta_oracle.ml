(* Reference implementation of the Theorem 2.1 translation functions: the
   hash-based join the library used before it built them flat. Each ring
   gets a hashed host enumeration; for every f in ring j of u and every w
   in ring j+1 of u, w's index in f's ring j+1 is probed and each hit is
   stored in a [Translation] table; the export then sorts each table's
   triples by (x, y). Tests hold the flat columns of [Structure] and the
   Basic snapshot to it. *)

module Rings = Ron_core.Rings
module Enumeration = Ron_core.Enumeration
module Translation = Ron_core.Translation
module Zooming = Ron_core.Zooming

type t = { enums : Enumeration.t array array; zetas : Translation.t array array }

let build rings ~scales =
  let n = Rings.size rings in
  let members u j = (Rings.rings_of rings u).(j).Rings.members in
  let enums =
    Array.init n (fun u -> Array.init scales (fun j -> Enumeration.of_array (members u j)))
  in
  let zetas =
    Array.init n (fun u ->
        Array.init (scales - 1) (fun j ->
            let z = Translation.create () in
            Array.iter
              (fun f ->
                let x = Enumeration.index_exn enums.(u).(j) f in
                Array.iter
                  (fun w ->
                    match Enumeration.index enums.(f).(j + 1) w with
                    | None -> ()
                    | Some y ->
                      Translation.add z ~x ~y ~z:(Enumeration.index_exn enums.(u).(j + 1) w))
                  (members u (j + 1)))
              (members u j);
            z))
  in
  { enums; zetas }

let compare_xy (x1, y1, _) (x2, y2, _) =
  if x1 <> x2 then Int.compare x1 x2 else Int.compare y1 y2

(* Every segment's triples sorted by (x, y), segment (u, j) at
   [u * (scales - 1) + j]. *)
let segments t =
  Array.concat
    (Array.to_list
       (Array.map
          (Array.map (fun z ->
               let e = Array.of_list (Translation.entries z) in
               Array.sort compare_xy e;
               e))
          t.zetas))

let decode t u label =
  Zooming.decode_walk
    ~translate:(fun j ~x ~y ->
      match Translation.find t.zetas.(u).(j) ~x ~y with Some z -> z | None -> -1)
    label

(* The flat columns [(off, xs, ys, zs)] as per-segment triple arrays. *)
let of_columns (off : (int, _, _) Bigarray.Array1.t) xs ys zs =
  Array.init
    (Bigarray.Array1.dim off - 1)
    (fun s ->
      Array.init (off.{s + 1} - off.{s}) (fun k ->
          let i = off.{s} + k in
          (xs.{i}, ys.{i}, zs.{i})))
