(* The one name registry of counters, gauges and histograms. Each kind
   adds its constructor to [metric]; a name names one metric for the life
   of the process, so every output lists it once and under one kind. *)

type metric = ..

let mu = Mutex.create ()
let table : (string, metric) Hashtbl.t = Hashtbl.create 64

let declare name fresh =
  Mutex.protect mu (fun () ->
      match Hashtbl.find_opt table name with
      | Some m -> m
      | None ->
        let m = fresh () in
        Hashtbl.add table name m;
        m)

let clash kind name =
  invalid_arg (Printf.sprintf "%s.make: %S is declared as another kind of metric" kind name)

let all () =
  Mutex.protect mu (fun () -> Hashtbl.fold (fun name m acc -> (name, m) :: acc) table [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map snd
