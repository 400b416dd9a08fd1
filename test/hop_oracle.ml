(* Reference implementation of the Theorem 2.1 hop as [Basic] ran it
   before it decoded only to the chased level and read first hops by ring
   position: every hop decodes the label to j_ut, then binary-searches the
   node's id-sorted first-hop row for the intermediate target. Tests hold
   [Basic.target_level] and [Basic.hop_entry] to it. *)

module Basic = Ron_routing.Basic
module Structure = Ron_routing.Structure
module First_hop = Ron_routing.First_hop

let target_level (c : Basic.cols) l row m u level =
  let jut = Structure.decode c.st u l row m in
  if level < 0 then jut
  else if level > jut then failwith "Basic: Claim 2.4(b) violated (j > j_ut)"
  else if Structure.member c.st u level m.(level) = u then jut
  else level

let hop_entry (c : Basic.cols) u m j =
  let w = Structure.member c.st u j m.(j) in
  if w = u then failwith "Basic: intermediate target equals current node (invariant broken)";
  let e = First_hop.find c.table u w in
  if e < 0 then failwith "Basic: no first-hop pointer to intermediate target";
  e
