(* Reference implementation of the Theorem 3.4 labels: the hash join and
   the list-and-Hashtbl decoder the library used before it built the
   labels flat. Host enumerations phi_u (the canonical scale-0 prefix,
   then u's other scale-set nodes in node order) and virtual enumerations
   psi_v are hashed; for every v in u's scale-i set and every w in u's
   scale-(i+1) set that is virtual at v, the triple
   (phi_u(v), psi_v(w), phi_u(w)) is stored in a hashed (x, y) -> z table
   per scale, and the export sorts each table's triples by (x, y). The
   decoder walks both zooming sequences through both labels' tables,
   joining each level's entries on the virtual index through a Hashtbl,
   and folds the candidate list. Tests hold [Dls]'s columns and estimates
   to it. [scan_rows] is the decoder's walk over the rows themselves, with
   checked reads. *)

module Indexed = Ron_metric.Indexed
module Qfloat = Ron_util.Qfloat
module Triangulation = Ron_labeling.Triangulation
module Dls = Ron_labeling.Dls

let index_of nodes =
  let h = Hashtbl.create (Array.length nodes) in
  Array.iteri (fun i v -> Hashtbl.replace h v i) nodes;
  h

type label = {
  id : int;
  prefix_len : int;
  dists : float array;
  zetas : (int * int, int) Hashtbl.t array;
  zoom_first : int;
  zoom_rest : int array;
}

type t = { hosts : int array array; labels : label array }

(* [dls] supplies only what the label construction does not derive from
   the triangulation: the virtual neighbors T_v and the zooming
   sequences. *)
let build tri dls =
  let idx = Triangulation.idx tri in
  let n = Indexed.size idx in
  let li = Triangulation.levels tri in
  let scale_set u i =
    List.sort_uniq compare
      (Array.to_list (Triangulation.x_neighbors tri u i)
      @ Array.to_list (Triangulation.y_neighbors tri u i))
  in
  let scale_sets = Array.init n (fun u -> Array.init li (scale_set u)) in
  let prefix = scale_sets.(0).(0) in
  let hosts =
    Array.init n (fun u ->
        let rest = List.sort_uniq compare (List.concat (Array.to_list scale_sets.(u))) in
        Array.of_list (prefix @ List.filter (fun v -> not (List.mem v prefix)) rest))
  in
  let phi = Array.map index_of hosts in
  let virtuals = Array.init n (Dls.virtual_neighbors dls) in
  let psi = Array.map index_of virtuals in
  let codec =
    Qfloat.codec_for ~delta:(Triangulation.delta tri)
      ~aspect_ratio:(Float.max 2.0 (Indexed.aspect_ratio idx))
  in
  let label u =
    let zetas =
      Array.init (li - 1) (fun i ->
          let z = Hashtbl.create 64 in
          List.iter
            (fun v ->
              let x = Hashtbl.find phi.(u) v in
              List.iter
                (fun w ->
                  match Hashtbl.find_opt psi.(v) w with
                  | Some y -> Hashtbl.replace z (x, y) (Hashtbl.find phi.(u) w)
                  | None -> ())
                scale_sets.(u).(i + 1))
            scale_sets.(u).(i);
          z)
    in
    let f = Dls.zooming_sequence dls u in
    {
      id = u;
      prefix_len = List.length prefix;
      dists = Array.map (fun w -> Qfloat.quantize codec (Indexed.dist idx u w)) hosts.(u);
      zetas;
      zoom_first = Hashtbl.find (index_of (Array.of_list prefix)) f.(0);
      zoom_rest = Array.init (li - 1) (fun i -> Hashtbl.find psi.(f.(i)) f.(i + 1));
    }
  in
  { hosts; labels = Array.init n label }

(* Every segment's triples sorted by (x, y), segment (u, i) at
   [u * levels + i]. *)
let segments t =
  Array.concat
    (Array.to_list (Array.map (fun l -> Array.map Zeta_oracle.sorted_triples l.zetas) t.labels))

let entries_with_x z x =
  Hashtbl.fold (fun (x', y) z acc -> if x' = x then (y, z) :: acc else acc) z []

(* The Claim 2.2 walk of [src]'s zooming sequence through the maps of
   [la] and [lb]: [emit ia ib] receives host-index pairs. *)
let walk ~src ~la ~lb ~emit =
  let levels = Array.length la.zetas in
  let a = ref src.zoom_first and b = ref src.zoom_first in
  try
    for j = 0 to levels - 1 do
      emit !a !b;
      let right = Hashtbl.create 16 in
      List.iter (fun (y, z) -> Hashtbl.replace right y z) (entries_with_x lb.zetas.(j) !b);
      List.iter
        (fun (y, z_a) ->
          match Hashtbl.find_opt right y with Some z_b -> emit z_a z_b | None -> ())
        (entries_with_x la.zetas.(j) !a);
      let y = src.zoom_rest.(j) in
      match (Hashtbl.find_opt la.zetas.(j) (!a, y), Hashtbl.find_opt lb.zetas.(j) (!b, y)) with
      | Some a', Some b' ->
        a := a';
        b := b'
      | _ -> raise Exit
    done;
    emit !a !b
  with Exit -> ()

(* The common beacons the decoder identifies, as (i_u, i_v, d_u, d_v). *)
let candidates l_u l_v =
  let acc = ref [] in
  let emit iu iv =
    if iu < Array.length l_u.dists && iv < Array.length l_v.dists then
      acc := (iu, iv, l_u.dists.(iu), l_v.dists.(iv)) :: !acc
  in
  for k = 0 to l_u.prefix_len - 1 do
    emit k k
  done;
  walk ~src:l_v ~la:l_u ~lb:l_v ~emit;
  walk ~src:l_u ~la:l_v ~lb:l_u ~emit:(fun a b -> emit b a);
  !acc

let estimate t u v =
  if u = v then 0.0
  else
    List.fold_left
      (fun acc (_, _, du, dv) -> Float.min acc (du +. dv))
      infinity
      (candidates t.labels.(u) t.labels.(v))

(* The rows of [c] as per-segment (x, y, z) triples, segment (u, i) at
   [u * levels + i], in row order. *)
let of_rows (c : Dls.cols) =
  Array.init (c.rows * c.levels) (fun s ->
      let u = s / c.levels and i = s mod c.levels in
      let k = c.d_off.{u + 1} - c.d_off.{u} in
      Array.concat
        (List.init k (fun x ->
             let p = (c.levels * c.d_off.{u}) + (i * k) + x in
             Array.init (c.z_run.{p + 1} - c.z_run.{p}) (fun e ->
                 (x, c.z_y.{c.z_run.{p} + e}, c.z_z.{c.z_run.{p} + e})))))

(* [Dls.scan]'s estimate for rows [u] and [v] of [c], by the same walk
   over the rows, with checked reads. Raises [Invalid_argument] naming the
   read where the served scan's unchecked reads lose their footing: a host
   index outside its label's host list, which puts its row outside the
   label's block, or a z_y at or past max_virt, the size of the scan's
   y -> z map. *)
let scan_rows (c : Dls.cols) u v =
  let bad fmt = Printf.ksprintf invalid_arg fmt in
  let k r = c.d_off.{r + 1} - c.d_off.{r} in
  let host r what x = if x >= k r then bad "%s %d outside label %d's %d hosts" what x r (k r) in
  (* Row x of label r's level-j map: its (y, z) pairs. *)
  let row r j x =
    host r "row" x;
    let p = (c.levels * c.d_off.{r}) + (j * k r) + x in
    List.init (c.z_run.{p + 1} - c.z_run.{p}) (fun i ->
        let y = c.z_y.{c.z_run.{p} + i} and z = c.z_z.{c.z_run.{p} + i} in
        if y >= c.max_virt then bad "z_y %d at or past max_virt %d" y c.max_virt;
        host r "z_z" z;
        (y, z))
  in
  (* The y -> z map of the right-hand row of a join, -1 elsewhere. *)
  let right = Array.make c.max_virt (-1) in
  let best = ref infinity in
  let emit iu iv =
    if iu < k u && iv < k v then
      best := Float.min !best (c.d_val.{c.d_off.{u} + iu} +. c.d_val.{c.d_off.{v} + iv})
  in
  for i = 0 to c.prefix_len - 1 do
    emit i i
  done;
  (* The walk of [src]'s zooming sequence, a in [ra]'s hosts, b in [rb]'s. *)
  let walk ~src ~ra ~rb emit =
    let rec go j a b =
      emit a b;
      if j < c.levels then begin
        let ta = row ra j a and tb = row rb j b in
        List.iter (fun (y, z) -> right.(y) <- z) tb;
        List.iter (fun (y, za) -> if right.(y) >= 0 then emit za right.(y)) ta;
        List.iter (fun (y, _) -> right.(y) <- -1) tb;
        let y = c.zoom_rest.{(src * c.levels) + j} in
        match (List.assoc_opt y ta, List.assoc_opt y tb) with
        | Some a', Some b' -> go (j + 1) a' b'
        | _ -> ()
      end
    in
    go 0 c.zoom_first.{src} c.zoom_first.{src}
  in
  walk ~src:v ~ra:u ~rb:v emit;
  walk ~src:u ~ra:v ~rb:u (fun a b -> emit b a);
  !best
