(* Frozen, off-heap query servers.

   Each view's columns are declared once, as the sections of an
   {!Image.t} (Bigarray sections, int-indexed, string-free): [freeze_*]
   adopts the columns a scheme built, and [of_image] maps a loaded image's
   sections back — zero-copy — and checks them against the declaration
   first, so that the unchecked reads of its query path stay in bounds.
   Queries run the schemes' own code on the mapped columns: the estimators
   ([Dls.scan], [Landmark.bounds]), Meridian's walk ([Meridian.locate])
   and the Basic, Labelled and Two_mode hops ([Basic.hop],
   [Labelled.hop], [Two_mode.hop]) driven by the route loop
   ([Scheme.walk]), the same code live routes run.

   The hot path allocates nothing in steady state. The discipline, for the
   non-flambda middle end: every loop is a top-level tail-recursive
   function over ints (inner [let rec]s with free variables allocate a
   closure per call), no hot function takes or returns a float (both are
   boxed across non-inlined calls — float flow goes through the scratch
   [fbuf] float array, whose reads and writes are unboxed), and results
   land in caller-owned scratch registers. Verified by the [Gc.minor_words]
   audit ([Loop.minor_words_per_query]) in the bench and the tests. *)

module A1 = Bigarray.Array1
module Basic = Ron_routing.Basic
module Structure = Ron_routing.Structure
module First_hop = Ron_routing.First_hop
module Labelled = Ron_routing.Labelled
module Two_mode = Ron_routing.Two_mode
module Scheme = Ron_routing.Scheme
module Dls = Ron_labeling.Dls
module Landmark = Ron_labeling.Landmark
module Meridian = Ron_smallworld.Meridian

type ints = Image.ints
type floats = Image.floats
type u16s = Image.u16s

let[@inline always] ig (a : ints) i = A1.unsafe_get a i
let[@inline always] fg (a : floats) i = A1.unsafe_get a i

(* ------------------------------------------------------- per-domain scratch *)

(* All per-query mutable state. Float accumulators live in [fbuf];
   everything else is ints. Grown only by [prepare_scratch], so
   steady-state queries never allocate.

   fbuf slots: 0 meridian d; 1 meridian best_d; 2 route length; 3 lo;
   4 hi. The DLS decoder keeps its own state and results in [dls], the
   route loop its registers in [walk], Meridian's walk its results in
   [mer]. *)
type scratch = {
  mutable m : int array; (* decoded zooming sequence (Basic) *)
  dls : Dls.scratch;
  memo : Labelled.memo; (* Labelled per-route estimates *)
  walk : Scheme.regs; (* the route loop's registers; its trail is [hop_log] *)
  mer : Meridian.regs; (* Meridian's walk output; its trail is [hop_log] *)
  fbuf : float array;
  mutable r_outcome : int;
  mutable r_hops : int;
  mutable r_next : int; (* found member (locate) *)
  mutable r_aux : int; (* header bits (route) / measurements (locate) *)
  (* Per-hop trace capture for the flight recorder: visited nodes land in
     [hop_log] while [log_hops] is set (the observed loop arms it for the
     deterministically sampled queries only). [hop_len] keeps counting
     past the buffer so callers can see truncation; when off, each hop
     pays one load and a fall-through branch — nothing is written and
     nothing allocates, preserving the 0-words-per-query budget. *)
  hop_log : int array;
  mutable hop_len : int;
  mutable log_hops : bool;
}

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let hop_log = Array.make 64 0 in
      {
        m = [||];
        dls = Dls.new_scratch ();
        memo = Labelled.memo ();
        walk = Scheme.regs ~trail:hop_log ();
        mer = Meridian.regs ~trail:hop_log ();
        fbuf = Array.make 5 0.0;
        r_outcome = 0;
        r_hops = 0;
        r_next = 0;
        r_aux = 0;
        hop_log;
        hop_len = 0;
        log_hops = false;
      })

(* ---------------------------------------------------------- frozen views *)

type view =
  | Basic of Basic.cols
  | Labelled of Labelled.cols
  | Two_mode of Two_mode.cols
  | Meridian of Meridian.cols
  | Landmark of Landmark.cols

(* [hop]: the view's route hop over a domain's scratch, bound once per
   server so that a served route calls it without building a closure. *)
type t = { img : Image.t; view : view; hop : scratch -> int -> int -> int }

let route_hop = function
  | Basic b ->
    fun sc u level -> Basic.hop b b.Basic.st sc.walk.Scheme.target sc.m sc.walk u level
  | Labelled l -> fun sc u inter -> Labelled.hop l sc.dls sc.memo sc.walk u inter
  | Two_mode m -> fun sc u mode -> Two_mode.hop m sc.dls sc.walk u mode
  | Meridian _ | Landmark _ -> fun _ _ _ -> invalid_arg "Server: this scheme serves no route"

let server img view = { img; view; hop = route_hop view }

let image t = t.img
let byte_size t = Image.byte_size t.img
let save t file = Image.save t.img file

let scheme_tag t = t.img.Image.scheme

let size t =
  match t.view with
  | Basic b -> b.Basic.st.Structure.n
  | Labelled l -> l.Labelled.n
  | Two_mode m -> m.Two_mode.n
  | Meridian m -> m.Meridian.n
  | Landmark g -> g.Landmark.n

(* Source population for workloads: Meridian walks must start at members. *)
let sources t = match t.view with Meridian m -> Some m.Meridian.members | _ -> None

(* Warm the per-domain scratch to this server's bounds (call once per
   domain before the audited loop so steady-state queries never grow it). *)
let prepare_scratch t sc =
  match t.view with
  | Basic b ->
    let scales = b.Basic.st.Structure.scales in
    if Array.length sc.m < scales then sc.m <- Array.make scales 0
  | Labelled l ->
    Labelled.reserve sc.memo l.Labelled.n;
    Dls.reserve sc.dls l.dls
  | Two_mode m -> Dls.reserve sc.dls m.Two_mode.dls
  | Meridian _ | Landmark _ -> ()

let scratch_for t =
  let sc = Domain.DLS.get scratch_key in
  prepare_scratch t sc;
  sc

(* --------------------------------------------------------------- schema *)

(* Each view is declared once, below, as an ordered list of columns: a
   name, an element kind, the cols field it holds, and its rules. [freeze]
   reads the fields in that order. [of_image] names each section after the
   column at its place among the sections of its kind, builds the cols
   from the sections by name ([make]), and checks them — the view's meta
   predicate, then every rule, O(size) — before the view serves, since
   every hot read of it is unchecked. A meta section holds named scalars
   ([entries]); the bounds read them by name. *)

type kind = Int | Float | U16
type expr =
  | Const of int | Meta of string | Dim of string | Plus of expr * int | Min_size of string * expr

type rule =
  | Length of expr
  | Product of expr * expr * int
  | Offsets of string * expr
  | Range of expr * expr
  | Finite
  | Segments of {
      groups : string option;
      every : expr;
      rows : string;
      sizes : string;
      shift : int;
      slots : bool;
    }
  | Leading_sizes of { every : expr; upto : expr }

type column = { name : string; kind : kind; entries : string list; rules : rule list }
type sec = I of ints | F of floats | U of u16s

(* An image's sections by name, and each meta entry's section and index. *)
type env = { secs : (string, sec) Hashtbl.t; metas : (string, string * int) Hashtbl.t }

type 'c decl = {
  scheme : string;
  tag : int;
  columns : (column * ('c -> sec)) list;
  make : env -> 'c;
  meta_ok : 'c -> (unit, string * string) result;
  wrap : 'c -> view;
}

let col kind wrap name get rules = ({ name; kind; entries = []; rules }, fun c -> wrap (get c))
let ints name = col Int (fun a -> I a) name
let floats name = col Float (fun a -> F a) name
let u16s name = col U16 (fun a -> U a) name
let meta name entries get =
  ({ name; kind = Int; entries; rules = [] }, fun c -> I (Image.ints_of_array (get c)))
let dim = function I a -> A1.dim a | F a -> A1.dim a | U a -> A1.dim a
let sec e name = Hashtbl.find e.secs name
let ints_in e name = match sec e name with I a -> a | F _ | U _ -> invalid_arg name
let floats_in e name = match sec e name with F a -> a | I _ | U _ -> invalid_arg name
let u16s_in e name = match sec e name with U a -> a | I _ | F _ -> invalid_arg name
let int e m = let s, i = Hashtbl.find e.metas m in ig (ints_in e s) i
let float e m = let s, i = Hashtbl.find e.metas m in fg (floats_in e s) i

(* The smallest segment [off.{u * every}, off.{u * every + 1}) over u. *)
let rec min_size (off : ints) every u acc =
  if (u * every) + 1 >= A1.dim off then acc
  else min_size off every (u + 1) (min acc (ig off ((u * every) + 1) - ig off (u * every)))

let rec value e = function
  | Const k -> k
  | Meta m -> int e m
  | Dim s -> dim (sec e s)
  | Plus (x, k) -> value e x + k
  | Min_size (s, x) -> if value e x < 1 then 0 else min_size (ints_in e s) (value e x) 0 max_int

(* A bound in an error message, with the meta section it comes from. *)
let show e = function
  | Meta m as x -> Printf.sprintf "%d (%s %s)" (value e x) (fst (Hashtbl.find e.metas m)) m
  | x -> string_of_int (value e x)

(* -------------------------------------------------------------- checking *)

(* The rules' loops over a type-annotated column: the first failing index
   in [i, e), or -1. *)
let rec outside_ints (a : ints) lo hi i e =
  if i >= e then -1
  else if (let v = ig a i in v >= lo && v < hi) then outside_ints a lo hi (i + 1) e
  else i

let rec outside_u16s (a : u16s) lo hi i e =
  if i >= e then -1
  else if (let v = A1.unsafe_get a i in v >= lo && v < hi) then outside_u16s a lo hi (i + 1) e
  else i

let rec not_finite (a : floats) i e =
  if i >= e then -1
  else if (let v = fg a i in v -. v = 0.0 && v >= 0.0) then not_finite a (i + 1) e
  else i

(* The first segment [g * every + k], [k <= upto], of a group [g] from
   [g] on whose size differs from segment [k]'s, group 0's. *)
let rec unlike (off : ints) every upto groups g k =
  if g >= groups then -1
  else if k > upto then unlike off every upto groups (g + 1) 0
  else
    let r = (g * every) + k in
    if ig off (r + 1) - ig off r = ig off (k + 1) - ig off k then
      unlike off every upto groups g (k + 1)
    else r

(* Offsets that fall, or rise by less than [step]. *)
let rec short_rise (off : ints) step i e =
  if i >= e then -1
  else if (let a = ig off i and b = ig off (i + 1) in a <= b && b - a >= step) then
    short_rise off step (i + 1) e
  else i

let outside s lo hi i e =
  match s with
  | I a -> outside_ints a lo hi i e
  | U a -> outside_u16s a lo hi i e
  | F _ -> invalid_arg "Server.outside"

let entry_at s i = match s with I a -> ig a i | U a -> A1.unsafe_get a i | F _ -> 0

(* The segment rule: group g's entries, [start g] to [start (g + 1)], lie
   below the size of segment [g + shift] of [sizes]; [start g] is the
   start of row [groups.{g} * every], or of row [g * every] without
   [groups]. The earlier phases have checked [groups], [rows] and [sizes]
   as offsets. *)
let start groups every (rows : ints) g =
  match groups with
  | Some (a : ints) -> ig rows (ig a g * every)
  | None -> ig rows (g * every)

let rec segment s ~slots groups every rows (sizes : ints) shift g count =
  if g >= count then None
  else
    let size = ig sizes (g + shift + 1) - ig sizes (g + shift) in
    let i = start groups every rows g and e = start groups every rows (g + 1) in
    let bad =
      match s with
      | U a when slots -> Ron_core.Zeta.outside_slots a size i e
      | _ -> outside s 0 size i e
    in
    if bad < 0 then segment s ~slots groups every rows sizes shift (g + 1) count
    else Some (bad, g + shift, size)

let check e (c : column) rule =
  let s = sec e c.name in
  let n = dim s in
  let fail fmt = Printf.ksprintf (fun m -> Error (c.name, m)) fmt in
  match (rule, s) with
  | Length x, _ -> if n = value e x then Ok () else fail "%d entries, expected %d" n (value e x)
  | Product (a, b, k), _ ->
    let a = value e a and b = value e b in
    if a >= 1 && n >= k && (n - k) mod a = 0 && (n - k) / a = b then Ok ()
    else fail "%d entries, expected %d * %d + %d" n a b k
  | Offsets (target, step), I off ->
    let last = dim (sec e target) and k = value e step in
    if n >= 1 && ig off 0 = 0 && ig off (n - 1) = last && short_rise off k 0 (n - 1) < 0 then Ok ()
    else fail "offsets do not rise from 0 to %d in steps of at least %s" last (show e step)
  | Range (lo, hi), (I _ | U _) -> (
    match outside s (value e lo) (value e hi) 0 n with
    | -1 -> Ok ()
    | i -> fail "entry %d is %d, outside [%s, %s)" i (entry_at s i) (show e lo) (show e hi))
  | Finite, F a -> (
    match not_finite a 0 n with
    | -1 -> Ok ()
    | i -> fail "entry %d is %g, not finite and >= 0" i (fg a i))
  | Segments g, (I _ | U _) -> (
    let groups = Option.map (ints_in e) g.groups in
    let rows = ints_in e g.rows and sizes = ints_in e g.sizes in
    let every = value e g.every and count = A1.dim sizes - 1 - g.shift in
    let past, top =
      match groups with
      | Some a -> (count >= A1.dim a, if count > 0 && count < A1.dim a then ig a count else 0)
      | None -> (false, count)
    in
    if past || every < 0 || (every > 0 && top > (A1.dim rows - 1) / every) then
      fail "rows of %d per %s entry run past %s" every
        (Option.value g.groups ~default:"group") g.rows
    else
      match segment s ~slots:g.slots groups every rows sizes g.shift 0 count with
      | None -> Ok ()
      | Some (i, k, size) ->
        let v = entry_at s i in
        fail "entry %d is %d, outside segment %d of %s (%d entries)" i v k g.sizes size)
  | Leading_sizes g, I off -> (
    let every = value e g.every in
    let size r = ig off (r + 1) - ig off r in
    if every < 1 then fail "groups of %d segments" every
    else
      match unlike off every (min (value e g.upto) (every - 1)) ((n - 1) / every) 1 0 with
      | -1 -> Ok ()
      | r ->
        fail "segment %d of group %d has %d entries, group 0's has %d; segments 0 to %s agree"
          (r mod every) (r / every) (size r) (size (r mod every)) (show e g.upto))
  | (Offsets _ | Range _ | Finite | Segments _ | Leading_sizes _), _ ->
    invalid_arg ("Server: bad rule for " ^ c.name)

(* Lengths first, then offsets, then entries: each phase reads only what
   the earlier ones checked. *)
let phase = function
  | Length _ | Product _ -> 0
  | Offsets _ -> 1
  | Range _ | Finite | Segments _ | Leading_sizes _ -> 2

let validate e columns =
  let rules = List.concat_map (fun c -> List.map (fun r -> (c, r)) c.rules) columns in
  let by_phase = List.stable_sort (fun (_, a) (_, b) -> Int.compare (phase a) (phase b)) rules in
  List.fold_left (fun acc (c, r) -> Result.bind acc (fun () -> check e c r)) (Ok ()) by_phase

(* [Error (section, message)] unless [ok]. *)
let require sec ok fmt = Printf.ksprintf (fun m -> if ok then Ok () else Error (sec, m)) fmt
let ( let* ) = Result.bind

(* ------------------------------------------------------------------ views *)

let zero = Const 0
let nodes = Meta "n"
let offsets target = Offsets (target, zero)
let node_id = Range (zero, nodes)

(* A first-hop table over n nodes: [First_hop.find] and the entry reads
   stay in bounds, and every next hop and cost is usable. *)
let table_pack (tb : 'c -> First_hop.t) =
  [
    ints "t_off" (fun c -> (tb c).First_hop.t_off) [ Length (Plus (nodes, 1)); offsets "t_w" ];
    ints "t_w" (fun c -> (tb c).t_w) [ node_id ];
    ints "t_next" (fun c -> (tb c).t_next) [ Length (Dim "t_w"); node_id ];
    floats "t_cost" (fun c -> (tb c).t_cost) [ Length (Dim "t_w"); Finite ];
  ]

let table_of e =
  let i = ints_in e in
  { First_hop.t_off = i "t_off"; t_w = i "t_w"; t_next = i "t_next"; t_cost = floats_in e "t_cost" }

(* Once a Basic view is checked, [Structure.decode], [Structure.member]
   and the table reads are in bounds. The rows of zeta_uj lie in z_z and
   each slot in the rows of ring r = (u, j) is a position in ring r + 1
   or absent (a node's last ring has no rows); the decoder checks a
   label's y against its row. Each label's first index is in every
   ring 0, and each of node u's ring positions names an entry of u's
   first-hop row. Below level [shared] the decoder reads node 0's rows:
   every node's rings 0 to [shared] have node 0's sizes, so a position in
   node 0's ring j is one in u's, where the hop reads it. *)
let basic : Basic.cols decl =
  let st (c : Basic.cols) = c.st and scales = Meta "scales" in
  {
    scheme = "basic";
    tag = 1;
    columns =
      [
        meta "meta" [ "n"; "scales"; "max_hops"; "header_bits"; "shared" ] (fun c ->
            [| (st c).n; (st c).scales; c.max_hops; c.header_bits; (st c).shared |]);
        ints "label_first" (fun c -> (st c).label_first)
          [ Length nodes; Range (zero, Min_size ("ring_off", scales)) ];
        ints "label_rest" (fun c -> (st c).label_rest) [ Product (nodes, Plus (scales, -1), 0) ];
        ints "ring_off" (fun c -> (st c).ring_off)
          [
            Product (nodes, scales, 1);
            offsets "ring_node";
            Leading_sizes { every = scales; upto = Meta "shared" };
          ];
        ints "ring_node" (fun c -> (st c).ring_node) [ node_id ];
        ints "z_run" (fun c -> (st c).z_run) [ Length (Plus (Dim "ring_node", 1)); offsets "z_z" ];
      ]
      @ table_pack (fun (c : Basic.cols) -> c.table)
      @ [
          u16s "z_z" (fun c -> (st c).z_z)
            [
              Segments
                { groups = Some "ring_off"; every = Const 1; rows = "z_run"; sizes = "ring_off";
                  shift = 1; slots = true };
            ];
          u16s "ring_hop" (fun (c : Basic.cols) -> c.ring_hop)
            [
              Length (Dim "ring_node");
              Segments
                { groups = None; every = scales; rows = "ring_off"; sizes = "t_off"; shift = 0;
                  slots = false };
            ];
        ];
    make =
      (fun e ->
        let i = ints_in e and u = u16s_in e in
        let st =
          { Structure.n = int e "n"; scales = int e "scales"; shared = int e "shared";
            label_first = i "label_first"; label_rest = i "label_rest"; ring_off = i "ring_off";
            ring_node = i "ring_node"; z_run = i "z_run"; z_z = u "z_z" }
        in
        let max_hops = int e "max_hops" and header_bits = int e "header_bits" in
        { Basic.st; table = table_of e; ring_hop = u "ring_hop"; max_hops; header_bits });
    meta_ok =
      (fun c ->
        let n = (st c).n and s = (st c).scales and shared = (st c).shared in
        let budget = Basic.hop_budget n in
        require "meta"
          (n >= 1 && s >= 1 && c.max_hops >= 0 && c.max_hops <= budget && shared >= 0 && shared < s)
          "n %d, scales %d, max_hops %d (budget %d), shared %d" n s c.max_hops budget shared);
    wrap = (fun c -> Basic c);
  }

(* The DLS pack both label-based views end with. Once it is checked,
   every read [Dls.scan] makes unchecked is in bounds and its loops are
   bounded by the data: every row holds the prefix, zoom_first indexes it,
   zoom_rest and z_y are virtual indices below max_virt (the scratch
   bound, at most n), z_run has a row per (row, level, host index), and
   each z in row u's rows is one of u's host indices, so the walk stays
   in them. Only the Two_mode image serves the hosts column. *)
let dls_pack (dls : 'c -> Dls.cols) =
  let rows = Meta "rows" and levels = Meta "levels" and virt = Meta "max_virt" in
  let prefix = Meta "prefix_len" in
  [
    meta "dls_meta" [ "rows"; "levels"; "prefix_len"; "max_virt" ] (fun c ->
        let d = dls c in
        [| d.Dls.rows; d.levels; d.prefix_len; d.max_virt |]);
    ints "d_off" (fun c -> (dls c).d_off) [ Length (Plus (rows, 1)); Offsets ("d_val", prefix) ];
    ints "zoom_first" (fun c -> (dls c).zoom_first) [ Length rows; Range (zero, prefix) ];
    ints "zoom_rest" (fun c -> (dls c).zoom_rest) [ Product (rows, levels, 0); Range (zero, virt) ];
    ints "z_run" (fun c -> (dls c).z_run) [ Product (Dim "d_val", levels, 1); offsets "z_y" ];
    floats "d_val" (fun c -> (dls c).d_val) [ Finite ];
    u16s "z_y" (fun c -> (dls c).z_y) [ Range (zero, virt) ];
    u16s "z_z" (fun c -> (dls c).z_z)
      [
        Length (Dim "z_y");
        Segments
          { groups = Some "d_off"; every = levels; rows = "z_run"; sizes = "d_off"; shift = 0;
            slots = false };
      ];
  ]

let dls_of e ~hosts =
  let i = ints_in e and u = u16s_in e in
  { Dls.rows = int e "rows"; levels = int e "levels"; prefix_len = int e "prefix_len";
    max_virt = int e "max_virt"; d_off = i "d_off"; d_val = floats_in e "d_val"; hosts;
    zoom_first = i "zoom_first"; zoom_rest = i "zoom_rest"; z_run = i "z_run"; z_y = u "z_y";
    z_z = u "z_z" }

let dls_ok ~n (d : Dls.cols) =
  require "dls_meta"
    (d.rows = n && d.levels >= 0 && d.prefix_len >= 0 && d.max_virt >= 1 && d.max_virt <= n)
    "rows %d, levels %d, prefix %d, max_virt %d for %d nodes" d.rows d.levels d.prefix_len
    d.max_virt n

let labelled : Labelled.cols decl =
  {
    scheme = "labelled";
    tag = 2;
    columns =
      [
        meta "meta" [ "n"; "max_hops" ] (fun (c : Labelled.cols) -> [| c.n; c.max_hops |]);
        ints "header_bits" (fun c -> c.Labelled.header_bits) [ Length nodes ];
      ]
      @ table_pack (fun (c : Labelled.cols) -> c.table)
      @ dls_pack (fun (c : Labelled.cols) -> c.dls);
    make =
      (fun e ->
        { Labelled.n = int e "n"; max_hops = int e "max_hops";
          header_bits = ints_in e "header_bits"; table = table_of e;
          dls = dls_of e ~hosts:(Image.ints_create 0) });
    meta_ok =
      (fun c ->
        let budget = Labelled.hop_budget c.n in
        let* () =
          require "meta" (c.n >= 1 && c.max_hops >= 0 && c.max_hops <= budget)
            "n %d, max_hops %d (budget %d)" c.n c.max_hops budget
        in
        dls_ok ~n:c.n c.dls);
    wrap = (fun c -> Labelled c);
  }

(* Once checked, [Two_mode.hop] reads in bounds: hub pointers and directory
   members are nodes, [hub_g] names a directory or none, every directory
   has a member, and the per-(scale, node) columns have their lengths. *)
let two_mode : Two_mode.cols decl =
  let li = Meta "li" in
  {
    scheme = "two_mode";
    tag = 3;
    columns =
      [
        meta "meta" [ "n"; "li"; "max_hops"; "header_bits" ] (fun (c : Two_mode.cols) ->
            [| c.n; c.li; c.max_hops; c.header_bits |]);
        ( { name = "threshold"; kind = Float; entries = [ "m1_threshold" ]; rules = [] },
          fun c -> F (Image.floats_of_array [| c.Two_mode.m1_threshold |]) );
        ints "hub_ptr" (fun c -> c.Two_mode.hub_ptr) [ Product (nodes, li, 0); node_id ];
        ints "hub_g" (fun c -> c.Two_mode.hub_g)
          [ Product (li, nodes, 0); Range (Const (-1), Plus (Dim "dir_off", -1)) ];
        ints "dir_off" (fun c -> c.Two_mode.dir_off) [ Offsets ("dir_mem", Const 1) ];
        ints "dir_mem" (fun c -> c.Two_mode.dir_mem) [ node_id ];
        ints "dir_bnd" (fun c -> c.Two_mode.dir_bnd) [ Length (Dim "dir_mem") ];
        ints "own_off" (fun c -> c.Two_mode.own_off) [ Product (li, nodes, 1); offsets "own_tgt" ];
        ints "own_tgt" (fun c -> c.Two_mode.own_tgt) [ node_id ];
        ints "hosts" (fun c -> c.Two_mode.dls.hosts) [ Length (Dim "d_val"); node_id ];
        floats "r_level" (fun c -> c.Two_mode.r_level) [ Product (nodes, li, 0); Finite ];
        floats "dist" (fun c -> c.Two_mode.dist) [ Product (nodes, nodes, 0); Finite ];
      ]
      @ dls_pack (fun (c : Two_mode.cols) -> c.dls);
    make =
      (fun e ->
        let i = ints_in e and f = floats_in e in
        { Two_mode.n = int e "n"; li = int e "li"; max_hops = int e "max_hops";
          header_bits = int e "header_bits"; m1_threshold = float e "m1_threshold";
          hub_ptr = i "hub_ptr"; hub_g = i "hub_g"; dir_off = i "dir_off"; dir_mem = i "dir_mem";
          dir_bnd = i "dir_bnd"; own_off = i "own_off"; own_tgt = i "own_tgt";
          r_level = f "r_level"; dist = f "dist"; dls = dls_of e ~hosts:(i "hosts") });
    meta_ok =
      (fun c ->
        let budget = Two_mode.hop_budget c.li and t = c.m1_threshold in
        let* () =
          require "meta" (c.n >= 1 && c.li >= 1 && c.max_hops >= 0 && c.max_hops <= budget)
            "n %d, li %d, max_hops %d (budget %d)" c.n c.li c.max_hops budget
        in
        let* () = require "threshold" (t > 0.0 && t < 0.5) "%g, outside (0, 1/2)" t in
        dls_ok ~n:c.n c.dls);
    wrap = (fun c -> Two_mode c);
  }

(* Once checked, [Meridian.locate] reads in bounds: members and ring
   slots are nodes, every (node, scale) has a fill of at most ring_size
   and ring_size slots, and the distance matrix is n x n. *)
let meridian : Meridian.cols decl =
  let ring_size = Meta "ring_size" in
  {
    scheme = "meridian";
    tag = 4;
    columns =
      [
        meta "meta" [ "n"; "scales"; "ring_size" ] (fun (c : Meridian.cols) ->
            [| c.n; c.scales; c.ring_size |]);
        ints "mmembers" (fun c -> c.Meridian.members) [ node_id ];
        u16s "mr_fill" (fun c -> c.Meridian.fill)
          [ Product (nodes, Meta "scales", 0); Range (zero, Plus (ring_size, 1)) ];
        u16s "mr_node" (fun c -> c.Meridian.node)
          [ Product (Dim "mr_fill", ring_size, 0); node_id ];
        floats "mdmat" (fun c -> c.Meridian.dmat) [ Product (nodes, nodes, 0); Finite ];
      ];
    make =
      (fun e ->
        let u = u16s_in e in
        { Meridian.n = int e "n"; scales = int e "scales"; ring_size = int e "ring_size";
          members = ints_in e "mmembers"; fill = u "mr_fill"; node = u "mr_node";
          dmat = floats_in e "mdmat" });
    meta_ok =
      (fun c ->
        let* () =
          require "meta" (c.n >= 1 && c.scales >= 1 && c.ring_size >= 1)
            "n %d, scales %d, ring_size %d" c.n c.scales c.ring_size
        in
        require "mmembers" (A1.dim c.members >= 1) "no member to start from");
    wrap = (fun c -> Meridian c);
  }

(* Once checked, [Landmark.bounds] reads in bounds: beacons are nodes, [col]
   names a beacon or none, the rows are k x n, and each node's ball runs
   over its node and distance columns. *)
let landmark : Landmark.cols decl =
  let k = Meta "k" in
  {
    scheme = "landmark";
    tag = 5;
    columns =
      [
        meta "meta" [ "n"; "k" ] (fun (g : Landmark.cols) -> [| g.n; g.k |]);
        ints "beacons" (fun g -> g.Landmark.beacons) [ Length k; node_id ];
        ints "col" (fun g -> g.Landmark.col) [ Length nodes; Range (Const (-1), k) ];
        floats "rows" (fun g -> g.Landmark.rows) [ Product (k, nodes, 0); Finite ];
        ints "ball_off" (fun g -> g.Landmark.ball_off)
          [ Length (Plus (nodes, 1)); offsets "ball_node" ];
        ints "ball_node" (fun g -> g.Landmark.ball_node) [ node_id ];
        floats "ball_dist" (fun g -> g.Landmark.ball_dist) [ Length (Dim "ball_node"); Finite ];
      ];
    make =
      (fun e ->
        let i = ints_in e and f = floats_in e in
        { Landmark.n = int e "n"; k = int e "k"; beacons = i "beacons"; col = i "col";
          rows = f "rows"; ball_off = i "ball_off"; ball_node = i "ball_node";
          ball_dist = f "ball_dist" });
    meta_ok = (fun g -> require "meta" (g.n >= 1 && g.k >= 1 && g.k <= g.n) "n %d, k %d" g.n g.k);
    wrap = (fun g -> Landmark g);
  }

type any = Any : 'c decl -> any

let decls = [ Any basic; Any labelled; Any two_mode; Any meridian; Any landmark ]
let find_decl ok = List.find_opt (fun (Any d) -> ok d.scheme d.tag) decls

(* ------------------------------------------------- freezing and viewing *)

(* The view of columns this process built: adopted as they are, and not
   checked — each builder writes its columns consistent. *)
let freeze d c =
  let secs = List.map (fun (_, get) -> get c) d.columns in
  let pick f = Array.of_list (List.filter_map f secs) in
  let isecs = pick (function I a -> Some a | F _ | U _ -> None) in
  let fsecs = pick (function F a -> Some a | I _ | U _ -> None) in
  let usecs = pick (function U a -> Some a | I _ | F _ -> None) in
  server { Image.scheme = d.tag; isecs; fsecs; usecs } (d.wrap c)

let freeze_basic_t c = freeze basic c
let freeze_labelled_t c = freeze labelled c
let freeze_two_mode_t c = freeze two_mode c
let freeze_meridian_t c = freeze meridian c
let freeze_landmark_t c = freeze landmark c

(* Each section takes the name of the column at its place among the
   sections of its kind (the counts are checked). *)
let env_of columns (img : Image.t) =
  let e = { secs = Hashtbl.create 32; metas = Hashtbl.create 16 } in
  let add kind sec =
    List.iteri
      (fun i c ->
        Hashtbl.replace e.secs c.name (sec i);
        List.iteri (fun j m -> Hashtbl.replace e.metas m (c.name, j)) c.entries)
      (List.filter (fun c -> c.kind = kind) columns)
  in
  add Int (fun i -> I img.isecs.(i));
  add Float (fun i -> F img.fsecs.(i));
  add U16 (fun i -> U img.usecs.(i));
  e

(* Section counts, then every meta section's length, are checked before
   any meta read; then the meta predicate and the rules. *)
let view_of d (img : Image.t) =
  let columns = List.map fst d.columns in
  let count k = List.length (List.filter (fun c -> c.kind = k) columns) in
  let want = (count Int, count Float, count U16) in
  let got = Image.(Array.length img.isecs, Array.length img.fsecs, Array.length img.usecs) in
  let fail fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "%s image: %s" d.scheme m)) fmt in
  if got <> want then
    let (ni, nf, nu), (gi, gf, gu) = (want, got) in
    fail "expected %d int / %d float / %d uint16 sections, got %d / %d / %d" ni nf nu gi gf gu
  else
    let e = env_of columns img in
    let entries c = List.length c.entries in
    match List.find_opt (fun c -> entries c > 0 && dim (sec e c.name) <> entries c) columns with
    | Some c ->
      fail "%s section has %d entries, expected %d" c.name (dim (sec e c.name)) (entries c)
    | None -> (
      let c = d.make e in
      match Result.bind (d.meta_ok c) (fun () -> validate e columns) with
      | Ok () -> Ok (server img (d.wrap c))
      | Error (s, m) -> fail "%s: %s" s m)

let by_tag tag = find_decl (fun _ t -> t = tag)

let of_image (img : Image.t) =
  match by_tag img.scheme with
  | Some (Any d) -> view_of d img
  | None -> Error (Printf.sprintf "unknown scheme tag %d" img.scheme)

let load file = match Image.load file with Error e -> Error e | Ok img -> of_image img

let scheme_name t =
  match by_tag (scheme_tag t) with Some (Any d) -> d.scheme | None -> ""

let schema scheme =
  match find_decl (fun name _ -> name = scheme) with
  | Some (Any d) -> List.map fst d.columns
  | None -> invalid_arg ("Server.schema: " ^ scheme)

let eval (img : Image.t) x =
  match by_tag img.scheme with
  | Some (Any d) -> value (env_of (List.map fst d.columns) img) x
  | None -> invalid_arg "Server.eval: unknown scheme tag"

(* ---------------------------------------------------------------- routes *)

(* A route from [src] in the scheme's initial [state]: the view's hop in
   the route loop, then its registers into the scratch's (r_aux = header
   bits). Outcome codes are [Scheme.outcome]'s declaration order. *)
let walk_route t sc ~src ~dst ~header_bits ~max_hops state =
  let r = sc.walk in
  r.tracing <- sc.log_hops;
  Scheme.walk t.hop sc r ~detect_cycles:true ~header_bits ~max_hops ~src ~dst state;
  sc.r_outcome <-
    (match r.outcome with Delivered -> 0 | Truncated -> 1 | Self_forward -> 2 | Cycled -> 3
     | Dropped -> 4);
  sc.r_hops <- r.hops;
  sc.r_aux <- header_bits;
  sc.fbuf.(2) <- r.link.(1);
  if sc.log_hops then sc.hop_len <- r.trail_len

(* ------------------------------------------------- labeled dist estimates *)

(* The DLS estimate both label-based schemes expose as their distance
   query; [Dls.estimate] short-circuits identical labels to 0. Result in
   fbuf.(3) = fbuf.(4) (a point estimate, not an interval). *)
let dls_estimate d sc ~src ~dst =
  if src <> dst then begin
    Dls.scan d src d dst sc.dls ~exclude:(-1);
    let e = (Dls.results sc.dls).(0) in
    if not (e -. e = 0.0) then
      failwith "Server: no common beacon identified (Theorem 3.4 violated)";
    sc.fbuf.(3) <- e;
    sc.fbuf.(4) <- e
  end

(* ----------------------------------------------------------- dispatching *)

(* Query kinds (workload side): 0 route, 1 dist, 2 locate. Each scheme
   collapses unsupported kinds onto its native operation. *)

let effective_kind t kind =
  match t.view with
  | Basic _ -> 0
  | Labelled _ | Two_mode _ -> if kind = 1 then 1 else 0
  | Meridian _ -> 2
  | Landmark _ -> 1

(* Execute one query, writing the scratch result registers:
   route (kind 0):  r_outcome, r_hops, r_aux = header bits, fbuf.(2) = length
   dist (kind 1):   fbuf.(3) = lo, fbuf.(4) = hi
   locate (kind 2): r_next = found, r_hops, r_aux = measurements *)
let query t sc ~kind ~src ~dst =
  sc.r_outcome <- 0;
  sc.r_hops <- 0;
  sc.r_next <- 0;
  sc.r_aux <- 0;
  if sc.log_hops then sc.hop_len <- 0;
  sc.fbuf.(2) <- 0.0;
  sc.fbuf.(3) <- 0.0;
  sc.fbuf.(4) <- 0.0;
  match t.view with
  | Basic b -> walk_route t sc ~src ~dst ~header_bits:b.Basic.header_bits ~max_hops:b.max_hops (-1)
  | Labelled l ->
    if kind = 1 then dls_estimate l.Labelled.dls sc ~src ~dst
    else begin
      Labelled.fresh sc.memo;
      walk_route t sc ~src ~dst ~header_bits:(ig l.header_bits dst) ~max_hops:l.max_hops src
    end
  | Two_mode m ->
    if kind = 1 then dls_estimate m.Two_mode.dls sc ~src ~dst
    else walk_route t sc ~src ~dst ~header_bits:m.header_bits ~max_hops:m.max_hops 0
  | Meridian c ->
    let r = sc.mer in
    r.tracing <- sc.log_hops;
    Meridian.locate c Ron_fault.Fault.none ~query:0 r sc.fbuf ~start:src ~target:dst;
    sc.r_next <- r.found;
    sc.r_hops <- r.hops;
    sc.r_aux <- r.measurements;
    if sc.log_hops then sc.hop_len <- r.trail_len
  | Landmark g -> Landmark.bounds g sc.fbuf ~at:3 src dst
