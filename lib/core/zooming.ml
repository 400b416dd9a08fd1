type encoded = { first : int; rest : int array }

let encode ~sequence ~enum_of_prev ~first_index =
  let k = Array.length sequence in
  if k = 0 then invalid_arg "Zooming.encode: empty sequence";
  let rest =
    Array.init (k - 1) (fun j ->
        if !Ron_obs.Probe.on then Ron_obs.Probe.zoom_encode_step ();
        match enum_of_prev j sequence.(j + 1) with
        | Some i -> i
        | None ->
          invalid_arg
            (Printf.sprintf
               "Zooming.encode: element %d not enumerable at its predecessor (Claim 2.3/3.5 violated)"
               (j + 1)))
  in
  { first = first_index; rest }

let bits enc ~index_bits = (1 + Array.length enc.rest) * index_bits
