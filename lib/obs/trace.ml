(* Structured trace events as JSONL through a pluggable sink.

   Records are stamped with the one injected source of Clock: the logical
   tick unless a caller installs a clock, so tests and reproducible runs
   need no wall clock; the CLI injects a real one.

   When no sink is configured every [event] call is one load and a branch
   ([active] is false), so instrumented code pays ~nothing with tracing
   off. Spans are Profile.phase's: it writes their B/E records through
   [emit]. *)

type sink = { write : string -> unit; close : unit -> unit }

let null_sink = { write = (fun _ -> ()); close = (fun () -> ()) }

let channel_sink oc =
  let mu = Mutex.create () in
  {
    write =
      (fun line ->
        Mutex.protect mu (fun () ->
            output_string oc line;
            output_char oc '\n'));
    close = (fun () -> Mutex.protect mu (fun () -> close_out oc));
  }

let memory_sink () =
  let mu = Mutex.create () in
  let lines = ref [] in
  let sink =
    {
      write = (fun line -> Mutex.protect mu (fun () -> lines := line :: !lines));
      close = (fun () -> ());
    }
  in
  (sink, fun () -> Mutex.protect mu (fun () -> List.rev !lines))

type state = { mutable sink : sink; mutable is_active : bool }

let state = { sink = null_sink; is_active = false }
let holder = Clock.holder ()
let active () = state.is_active

let configure ?clock sink =
  Clock.hold holder ?source:clock ();
  state.sink <- sink;
  state.is_active <- true

let stop () =
  let s = state.sink in
  state.sink <- null_sink;
  state.is_active <- false;
  Clock.release holder;
  s.close ()

let emit ~ts ~ph ?(args = []) name =
  let base =
    [
      ("ts", Json.Int (Int64.to_int ts));
      ("dom", Json.Int (Domain.self () :> int));
      ("ph", Json.String ph);
      ("name", Json.String name);
    ]
  in
  let fields = match args with [] -> base | args -> base @ [ ("args", Json.Obj args) ] in
  state.sink.write (Json.to_line (Json.Obj fields))

let event ?args name = if state.is_active then emit ~ts:(Clock.read ()) ~ph:"i" ?args name
