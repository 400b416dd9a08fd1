let key : int array ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [||])

let get n =
  let m = Domain.DLS.get key in
  if Array.length !m < n then m := Array.make n (-1);
  !m
