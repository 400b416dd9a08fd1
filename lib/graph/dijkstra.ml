module Pool = Ron_util.Pool
module Probe = Ron_obs.Probe
module Profile = Ron_obs.Profile

type sssp = { source : int; dist : float array; first_hop : int array }

type apsp = { ap_n : int; ap_dist : floatarray; ap_fh : int array }

(* ------------------------------------------------------------------------ *)
(* Flat, allocation-lean core.

   The heap holds no records: entry [i] is a float priority in [heap_d.(i)]
   and an int key in [heap_x.(i)] packing [(first_hop + 1) << k | node],
   where [2^k] is the first power of two with [n <= 2^k]. Since
   [node < 2^k], integer order on the packed key is exactly the
   lexicographic order on [(first_hop, node)], so

     d_i < d_j  ||  (d_i = d_j && x_i < x_j)

   reproduces the reference comparator with two monomorphic compares and no
   allocation. Distinct live entries never compare equal (a push requires a
   strict [(d, fh)] improvement over the recorded tentative), so the pop
   sequence — and therefore every output bit — is independent of the heap's
   internal layout and identical to the reference implementation's.

   All per-source state lives in one scratch struct, allocated once per
   domain (via DLS) and reused across sources: running [all_pairs] performs
   no per-source allocation beyond the shared output arrays. *)

type scratch = {
  mutable cap : int; (* node capacity the buffers are sized for *)
  mutable dist : float array;
  mutable fh : int array;
  mutable settled : Bytes.t;
  mutable heap_d : float array;
  mutable heap_x : int array;
  mutable heap_len : int;
}

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        cap = 0;
        dist = [||];
        fh = [||];
        settled = Bytes.empty;
        heap_d = [||];
        heap_x = [||];
        heap_len = 0;
      })

let scratch_for n =
  let sc = Domain.DLS.get scratch_key in
  if sc.cap < n then begin
    sc.cap <- n;
    sc.dist <- Array.make n infinity;
    sc.fh <- Array.make n (-1);
    sc.settled <- Bytes.make n '\000';
    (* Heap capacity grows on demand; seed it with room for a few pushes per
       node, the common case on bounded-degree graphs. *)
    sc.heap_d <- Array.make (4 * n) 0.0;
    sc.heap_x <- Array.make (4 * n) 0;
    sc.heap_len <- 0
  end;
  sc

let heap_push sc d x =
  let len = sc.heap_len in
  if len = Array.length sc.heap_d then begin
    let bigger_d = Array.make (2 * len) 0.0 and bigger_x = Array.make (2 * len) 0 in
    Array.blit sc.heap_d 0 bigger_d 0 len;
    Array.blit sc.heap_x 0 bigger_x 0 len;
    sc.heap_d <- bigger_d;
    sc.heap_x <- bigger_x
  end;
  let hd = sc.heap_d and hx = sc.heap_x in
  (* Sift up by hole-movement: no swaps, one final store. *)
  let i = ref len in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let pd = Array.unsafe_get hd p in
    if d < pd || (d = pd && x < Array.unsafe_get hx p) then begin
      Array.unsafe_set hd !i pd;
      Array.unsafe_set hx !i (Array.unsafe_get hx p);
      i := p
    end
    else continue := false
  done;
  Array.unsafe_set hd !i d;
  Array.unsafe_set hx !i x;
  sc.heap_len <- len + 1

(* Remove the minimum; the caller reads it from [sc.heap_d.(0)]/[heap_x.(0)]
   before calling. *)
let heap_drop_min sc =
  let len = sc.heap_len - 1 in
  sc.heap_len <- len;
  if len > 0 then begin
    let hd = sc.heap_d and hx = sc.heap_x in
    let d = Array.unsafe_get hd len and x = Array.unsafe_get hx len in
    (* Sift the former last element down from the root, hole-movement. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= len then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < len then begin
            let ld = Array.unsafe_get hd l and rd = Array.unsafe_get hd r in
            if rd < ld || (rd = ld && Array.unsafe_get hx r < Array.unsafe_get hx l) then r
            else l
          end
          else l
        in
        let cd = Array.unsafe_get hd c in
        if cd < d || (cd = d && Array.unsafe_get hx c < x) then begin
          Array.unsafe_set hd !i cd;
          Array.unsafe_set hx !i (Array.unsafe_get hx c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set hd !i d;
    Array.unsafe_set hx !i x
  end

(* CSR view of the adjacency: arc [k] of node [u] lives at flat position
   [off.(u) + k], destinations in one int array and weights in one float
   array. One flattening per traversal batch replaces a boxed-record load
   per scanned edge with two unsafe array reads, and the three arrays are
   immutable — shared read-only across the pool's domains. *)
type csr = { off : int array; dst : int array; w : floatarray }

(* The graph itself is CSR now, so this is a zero-copy view: no per-traversal
   flattening cost, and the three arrays are immutable — shared read-only
   across the pool's domains. *)
let csr_of g =
  let off, dst, w = Graph.csr g in
  { off; dst; w }

(* One source, into the scratch buffers. *)
let run_core csr n sc source =
  let dist = sc.dist and fh = sc.fh and settled = sc.settled in
  Array.fill dist 0 n infinity;
  Array.fill fh 0 n (-1);
  Bytes.fill settled 0 n '\000';
  sc.heap_len <- 0;
  dist.(source) <- 0.0;
  (* Packing width: first power of two holding a node id, so unpacking is a
     mask/shift instead of a division. *)
  let shift =
    let k = ref 1 in
    while 1 lsl !k < n do incr k done;
    !k
  in
  let mask = (1 lsl shift) - 1 in
  (* fh = -1 packs to 0 lsl shift lor node. *)
  heap_push sc 0.0 source;
  let off = csr.off and adj = csr.dst and wts = csr.w in
  while sc.heap_len > 0 do
    let d = Array.unsafe_get sc.heap_d 0 and x = Array.unsafe_get sc.heap_x 0 in
    heap_drop_min sc;
    let node = x land mask in
    if Bytes.unsafe_get settled node = '\000' then begin
      Bytes.unsafe_set settled node '\001';
      let efh = (x lsr shift) - 1 in
      Array.unsafe_set dist node d;
      Array.unsafe_set fh node efh;
      let lo = Array.unsafe_get off node in
      let hi = Array.unsafe_get off (node + 1) in
      for e = lo to hi - 1 do
        let v = Array.unsafe_get adj e in
        if Bytes.unsafe_get settled v = '\000' then begin
          let nd = d +. Float.Array.unsafe_get wts e in
          let nfh = if node = source then e - lo else efh in
          let dv = Array.unsafe_get dist v in
          if nd < dv || (nd = dv && nfh < Array.unsafe_get fh v) then begin
            Array.unsafe_set dist v nd;
            Array.unsafe_set fh v nfh;
            heap_push sc nd (((nfh + 1) lsl shift) lor v)
          end
        end
      done
    end
  done;
  fh.(source) <- -1

let run g source =
  let n = Graph.size g in
  let sc = scratch_for n in
  run_core (csr_of g) n sc source;
  if !Probe.on then Probe.sssp_source ();
  { source; dist = Array.sub sc.dist 0 n; first_hop = Array.sub sc.fh 0 n }

(* ------------------------------------------------------------------------ *)
(* Radius-limited single-source runs.

   [run_core] pays an O(n) scratch reset per source — fine when every source
   is visited once, fatal when n bounded explorations each touch a ball of a
   few dozen nodes. The bounded scratch instead stamps every touched cell
   with a per-run generation counter: a cell is valid only if its stamp
   matches the current run, so reset is [gen <- gen + 1] and the cost of a
   run is proportional to the ball actually explored, not to n.

   The radius bound is enforced at push time: a tentative distance
   [nd > radius] is never enqueued. With positive weights every prefix of a
   shortest path is strictly shorter, so any node whose true distance is
   [<= radius] is reached entirely through in-radius pushes — the settled
   set is exactly [{ v | dist(v) <= radius }] and every settled distance /
   first-hop bit matches the unbounded run (pushes beyond the radius are
   dominated entries that never decide a final label). The heap therefore
   drains exactly when the ball is exhausted: the early exit is structural
   rather than a popped-distance test. *)

type bounded = {
  center : int;
  radius : float;
  nodes : int array;  (** settled nodes in pop (increasing-distance) order *)
  dists : float array;
  hops : int array;
}

type bscratch = {
  mutable bcap : int;
  mutable bdist : float array;
  mutable bfh : int array;
  mutable stamp : int array; (* tentative label valid iff stamp.(v) = gen *)
  mutable done_stamp : int array; (* settled iff done_stamp.(v) = gen *)
  mutable gen : int;
  mutable bheap_d : float array;
  mutable bheap_x : int array;
  mutable bheap_len : int;
  mutable out_nodes : int array; (* settled output, grows on demand *)
  mutable out_dist : float array;
  mutable out_fh : int array;
  mutable out_len : int;
}

let bscratch_key : bscratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        bcap = 0;
        bdist = [||];
        bfh = [||];
        stamp = [||];
        done_stamp = [||];
        gen = 0;
        bheap_d = [||];
        bheap_x = [||];
        bheap_len = 0;
        out_nodes = [||];
        out_dist = [||];
        out_fh = [||];
        out_len = 0;
      })

let bscratch_for n =
  let sc = Domain.DLS.get bscratch_key in
  if sc.bcap < n then begin
    sc.bcap <- n;
    sc.bdist <- Array.make n infinity;
    sc.bfh <- Array.make n (-1);
    sc.stamp <- Array.make n 0;
    sc.done_stamp <- Array.make n 0;
    sc.gen <- 0;
    if Array.length sc.bheap_d = 0 then begin
      sc.bheap_d <- Array.make 256 0.0;
      sc.bheap_x <- Array.make 256 0
    end;
    if Array.length sc.out_nodes = 0 then begin
      sc.out_nodes <- Array.make 256 0;
      sc.out_dist <- Array.make 256 0.0;
      sc.out_fh <- Array.make 256 0
    end
  end;
  sc

let bheap_push sc d x =
  let len = sc.bheap_len in
  if len = Array.length sc.bheap_d then begin
    let bigger_d = Array.make (2 * len) 0.0 and bigger_x = Array.make (2 * len) 0 in
    Array.blit sc.bheap_d 0 bigger_d 0 len;
    Array.blit sc.bheap_x 0 bigger_x 0 len;
    sc.bheap_d <- bigger_d;
    sc.bheap_x <- bigger_x
  end;
  let hd = sc.bheap_d and hx = sc.bheap_x in
  let i = ref len in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let pd = Array.unsafe_get hd p in
    if d < pd || (d = pd && x < Array.unsafe_get hx p) then begin
      Array.unsafe_set hd !i pd;
      Array.unsafe_set hx !i (Array.unsafe_get hx p);
      i := p
    end
    else continue := false
  done;
  Array.unsafe_set hd !i d;
  Array.unsafe_set hx !i x;
  sc.bheap_len <- len + 1

let bheap_drop_min sc =
  let len = sc.bheap_len - 1 in
  sc.bheap_len <- len;
  if len > 0 then begin
    let hd = sc.bheap_d and hx = sc.bheap_x in
    let d = Array.unsafe_get hd len and x = Array.unsafe_get hx len in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= len then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < len then begin
            let ld = Array.unsafe_get hd l and rd = Array.unsafe_get hd r in
            if rd < ld || (rd = ld && Array.unsafe_get hx r < Array.unsafe_get hx l) then r
            else l
          end
          else l
        in
        let cd = Array.unsafe_get hd c in
        if cd < d || (cd = d && Array.unsafe_get hx c < x) then begin
          Array.unsafe_set hd !i cd;
          Array.unsafe_set hx !i (Array.unsafe_get hx c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set hd !i d;
    Array.unsafe_set hx !i x
  end

let record_settled sc node d fh =
  let len = sc.out_len in
  if len = Array.length sc.out_nodes then begin
    let nodes = Array.make (2 * len) 0
    and dist = Array.make (2 * len) 0.0
    and fhs = Array.make (2 * len) 0 in
    Array.blit sc.out_nodes 0 nodes 0 len;
    Array.blit sc.out_dist 0 dist 0 len;
    Array.blit sc.out_fh 0 fhs 0 len;
    sc.out_nodes <- nodes;
    sc.out_dist <- dist;
    sc.out_fh <- fhs
  end;
  sc.out_nodes.(len) <- node;
  sc.out_dist.(len) <- d;
  sc.out_fh.(len) <- fh;
  sc.out_len <- len + 1

let run_bounded g source ~radius =
  if not (radius >= 0.0) then invalid_arg "Dijkstra.run_bounded: radius must be non-negative";
  let n = Graph.size g in
  if source < 0 || source >= n then invalid_arg "Dijkstra.run_bounded: source out of range";
  let csr = csr_of g in
  let sc = bscratch_for n in
  sc.gen <- sc.gen + 1;
  let gen = sc.gen in
  let bdist = sc.bdist and bfh = sc.bfh and stamp = sc.stamp and done_stamp = sc.done_stamp in
  sc.bheap_len <- 0;
  sc.out_len <- 0;
  let shift =
    let k = ref 1 in
    while 1 lsl !k < n do incr k done;
    !k
  in
  let mask = (1 lsl shift) - 1 in
  bdist.(source) <- 0.0;
  bfh.(source) <- -1;
  stamp.(source) <- gen;
  bheap_push sc 0.0 source;
  let off = csr.off and adj = csr.dst and wts = csr.w in
  while sc.bheap_len > 0 do
    let d = Array.unsafe_get sc.bheap_d 0 and x = Array.unsafe_get sc.bheap_x 0 in
    bheap_drop_min sc;
    let node = x land mask in
    if Array.unsafe_get done_stamp node <> gen then begin
      Array.unsafe_set done_stamp node gen;
      let efh = (x lsr shift) - 1 in
      let efh = if node = source then -1 else efh in
      record_settled sc node d efh;
      let lo = Array.unsafe_get off node in
      let hi = Array.unsafe_get off (node + 1) in
      for e = lo to hi - 1 do
        let v = Array.unsafe_get adj e in
        if Array.unsafe_get done_stamp v <> gen then begin
          let nd = d +. Float.Array.unsafe_get wts e in
          if nd <= radius then begin
            let nfh = if node = source then e - lo else efh in
            let fresh = Array.unsafe_get stamp v <> gen in
            let dv = if fresh then infinity else Array.unsafe_get bdist v in
            if
              nd < dv
              || (nd = dv && (fresh || nfh < Array.unsafe_get bfh v))
            then begin
              Array.unsafe_set bdist v nd;
              Array.unsafe_set bfh v nfh;
              Array.unsafe_set stamp v gen;
              bheap_push sc nd (((nfh + 1) lsl shift) lor v)
            end
          end
        end
      done
    end
  done;
  if !Probe.on then Probe.sssp_source ();
  {
    center = source;
    radius;
    nodes = Array.sub sc.out_nodes 0 sc.out_len;
    dists = Array.sub sc.out_dist 0 sc.out_len;
    hops = Array.sub sc.out_fh 0 sc.out_len;
  }

(* ------------------------------------------------------------------------ *)
(* On-demand distance oracle: cached single-source rows.

   [row t s] returns the full SSSP row from [s], computing it with the same
   flat [run_core] as {!all_pairs} (so every bit matches the eager matrix)
   and caching it in a per-domain LRU keyed by source. Per-domain caches
   need no locks, and because rows are pure functions of the graph, the
   results are independent of which domain computes them — [RON_JOBS]
   changes timing, never bits. Memory is bounded by
   [capacity * 16 bytes * n] per domain that actually queries. *)

module Oracle = struct
  type row = { row_dist : float array; row_fh : int array }

  type slot = { srow : row; mutable last : int }

  type cache = { tbl : (int, slot) Hashtbl.t; mutable tick : int }

  type t = {
    ograph : Graph.t;
    on : int;
    ocsr : csr;
    ocapacity : int;
    cache_key : cache Domain.DLS.key;
  }

  (* Cap the per-domain cache near 64 MB of rows, floor of two so a
     ping-pong between two sources (the symmetric-dist pattern) still
     hits. [RON_ORACLE_ROWS] overrides. *)
  let rows_of_env = function
    | None -> None
    | Some s -> (
      match String.trim s with
      | "" -> None
      | t -> (
        match int_of_string_opt t with
        | Some k when k >= 1 -> Some k
        | _ -> invalid_arg (Printf.sprintf "bad RON_ORACLE_ROWS %S (expected an integer >= 1)" s)))

  let default_capacity n =
    match rows_of_env (Sys.getenv_opt "RON_ORACLE_ROWS") with
    | Some k -> k
    | None -> max 2 (min 32 (4_194_304 / max n 1))

  let create ?capacity g =
    let n = Graph.size g in
    let ocapacity =
      match capacity with
      | Some c when c >= 1 -> c
      | Some _ -> invalid_arg "Dijkstra.Oracle.create: capacity must be positive"
      | None -> default_capacity n
    in
    {
      ograph = g;
      on = n;
      ocsr = csr_of g;
      ocapacity;
      cache_key = Domain.DLS.new_key (fun () -> { tbl = Hashtbl.create 61; tick = 0 });
    }

  let size t = t.on
  let capacity t = t.ocapacity

  let row t s =
    if s < 0 || s >= t.on then invalid_arg "Dijkstra.Oracle: source out of range";
    let c = Domain.DLS.get t.cache_key in
    c.tick <- c.tick + 1;
    match Hashtbl.find_opt c.tbl s with
    | Some slot ->
      slot.last <- c.tick;
      if !Probe.on then Probe.oracle_hit ();
      slot.srow
    | None ->
      let n = t.on in
      let sc = scratch_for n in
      run_core t.ocsr n sc s;
      let r = { row_dist = Array.sub sc.dist 0 n; row_fh = Array.sub sc.fh 0 n } in
      if Hashtbl.length c.tbl >= t.ocapacity then begin
        (* Evict the least-recently-used row (linear scan: capacity is
           small by construction). *)
        let victim = ref (-1) and oldest = ref max_int in
        Hashtbl.iter
          (fun k slot ->
            if slot.last < !oldest then begin
              oldest := slot.last;
              victim := k
            end)
          c.tbl;
        if !victim >= 0 then begin
          Hashtbl.remove c.tbl !victim;
          if !Probe.on then Probe.oracle_evict ()
        end
      end;
      Hashtbl.add c.tbl s { srow = r; last = c.tick };
      if !Probe.on then begin
        Probe.oracle_build ();
        Probe.sssp_source ();
        Probe.oracle_occupancy (Hashtbl.length c.tbl)
      end;
      (* Row builds are the oracle's unit of heavy work — a natural
         telemetry cadence for long on-demand phases. *)
      if !Ron_obs.Telemetry.active then Ron_obs.Telemetry.tick ();
      r

  (* The returned arrays are the cache's own storage: read-only. *)
  let distances t s = (row t s).row_dist
  let first_hops t s = (row t s).row_fh
  let distance t u v = (distances t u).(v)
  let first_hop t u v = (first_hops t u).(v)
end

let all_pairs ?jobs g =
  Profile.phase "dijkstra.all_pairs" @@ fun () ->
  let n = Graph.size g in
  let csr = csr_of g in
  let ap_dist = Float.Array.create (n * n) in
  let ap_fh = Array.make (n * n) (-1) in
  Pool.parallel_for ?jobs n (fun s ->
      let sc = scratch_for n in
      run_core csr n sc s;
      let off = s * n in
      for v = 0 to n - 1 do
        Float.Array.unsafe_set ap_dist (off + v) (Array.unsafe_get sc.dist v);
        Array.unsafe_set ap_fh (off + v) (Array.unsafe_get sc.fh v)
      done;
      if !Probe.on then Probe.sssp_source ());
  { ap_n = n; ap_dist; ap_fh }

let size a = a.ap_n
let distance a u v = Float.Array.get a.ap_dist ((u * a.ap_n) + v)
let first_hop a u v = a.ap_fh.((u * a.ap_n) + v)

let sssp_of a s =
  let n = a.ap_n in
  {
    source = s;
    dist = Array.init n (fun v -> Float.Array.get a.ap_dist ((s * n) + v));
    first_hop = Array.sub a.ap_fh (s * n) n;
  }

let next_node g s v =
  if v = s.source then invalid_arg "Dijkstra.next_node: target is the source";
  let k = s.first_hop.(v) in
  if k < 0 then invalid_arg "Dijkstra.next_node: unreachable target";
  Graph.hop g s.source k

let next_toward g a u v =
  if v = u then invalid_arg "Dijkstra.next_toward: target is the source";
  let k = first_hop a u v in
  if k < 0 then invalid_arg "Dijkstra.next_toward: unreachable target";
  Graph.hop g u k

(* ------------------------------------------------------------------------ *)
(* The pre-optimization implementation (one boxed record per heap entry,
   polymorphic tuple compare in [less], one record-of-arrays per source),
   kept verbatim as the measured baseline for bench/main.exe --json and the
   equivalence tests — the Dijkstra analogue of [Indexed.create_reference]. *)

module Reference_heap = struct
  type entry = { d : float; fh : int; node : int }

  type t = { mutable a : entry array; mutable len : int }

  let create () = { a = Array.make 64 { d = 0.0; fh = 0; node = 0 }; len = 0 }

  let less x y = x.d < y.d || (x.d = y.d && (x.fh, x.node) < (y.fh, y.node))

  let swap h i j =
    let tmp = h.a.(i) in
    h.a.(i) <- h.a.(j);
    h.a.(j) <- tmp

  let push h e =
    if h.len = Array.length h.a then begin
      let bigger = Array.make (2 * h.len) e in
      Array.blit h.a 0 bigger 0 h.len;
      h.a <- bigger
    end;
    h.a.(h.len) <- e;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while !i > 0 && less h.a.(!i) h.a.((!i - 1) / 2) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.a.(0) in
      h.len <- h.len - 1;
      if h.len > 0 then begin
        h.a.(0) <- h.a.(h.len);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < h.len && less h.a.(l) h.a.(!smallest) then smallest := l;
          if r < h.len && less h.a.(r) h.a.(!smallest) then smallest := r;
          if !smallest <> !i then begin
            swap h !i !smallest;
            i := !smallest
          end
          else continue := false
        done
      end;
      Some top
    end
end

let run_reference g source =
  let n = Graph.size g in
  let dist = Array.make n infinity in
  let first_hop = Array.make n (-1) in
  let settled = Array.make n false in
  let heap = Reference_heap.create () in
  dist.(source) <- 0.0;
  Reference_heap.push heap { d = 0.0; fh = -1; node = source };
  let rec loop () =
    match Reference_heap.pop heap with
    | None -> ()
    | Some e ->
      if not settled.(e.node) then begin
        settled.(e.node) <- true;
        dist.(e.node) <- e.d;
        first_hop.(e.node) <- e.fh;
        Array.iteri
          (fun k edge ->
            let v = edge.Graph.dst in
            if not settled.(v) then begin
              let nd = e.d +. edge.Graph.weight in
              let nfh = if e.node = source then k else e.fh in
              if nd < dist.(v) || (nd = dist.(v) && nfh < first_hop.(v)) then begin
                dist.(v) <- nd;
                first_hop.(v) <- nfh;
                Reference_heap.push heap { d = nd; fh = nfh; node = v }
              end
            end)
          (Graph.out_edges g e.node)
      end;
      loop ()
  in
  loop ();
  first_hop.(source) <- -1;
  { source; dist; first_hop }

let all_pairs_reference g = Array.init (Graph.size g) (fun s -> run_reference g s)
