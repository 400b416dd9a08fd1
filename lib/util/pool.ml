(* Chunked parallel-for over OCaml 5 domains — no external dependency, no
   work stealing. Iterations are split into [jobs] contiguous chunks, one
   domain per chunk; this keeps every worker on a cache-friendly contiguous
   index range and makes the work assignment independent of scheduling, so a
   deterministic body produces identical results at any job count.

   Job count: the [?jobs] argument wins, then the [RON_JOBS] environment
   variable, then [Domain.recommended_domain_count ()]. With one job (or
   from inside another pool region — domains must not be nested) the loop
   degrades to a plain sequential [for], so RON_JOBS=1 reproduces the
   pre-parallel behaviour exactly. *)

(* Absent or empty keeps the default; anything else must be a job count. *)
let jobs_of_env = function
  | None -> None
  | Some s -> (
    match String.trim s with
    | "" -> None
    | t -> (
      match int_of_string_opt t with
      | Some j when j >= 1 -> Some j
      | _ -> invalid_arg (Printf.sprintf "bad RON_JOBS %S (expected an integer >= 1)" s)))

let env_jobs = lazy (jobs_of_env (Sys.getenv_opt "RON_JOBS"))

(* Process-wide override (the CLI's --jobs flag); wins over RON_JOBS. *)
let default_override = ref None

let set_default_jobs j =
  match j with
  | Some j when j < 1 -> invalid_arg "Pool.set_default_jobs: jobs must be >= 1"
  | _ -> default_override := j

let jobs () =
  match !default_override with
  | Some j -> j
  | None -> (
    match Lazy.force env_jobs with
    | Some j -> j
    | None -> Domain.recommended_domain_count ())

(* True while the current domain is executing a pool chunk; nested calls
   then run sequentially instead of spawning domains from domains. *)
let inside : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let sequential_for lo hi f =
  for i = lo to hi - 1 do
    f i
  done

(* Observer hook for the obs layer (which sits above this library, so it
   cannot be called directly): fired once per top-level [parallel_for]
   batch with the effective job count and item count. Nested (inside-pool)
   calls do not fire — they are an implementation detail of the outer
   batch, and reporting them would make the batch sequence depend on the
   split. The default is a no-op; Ron_obs installs its hook at module
   initialization. *)
let observer : (jobs:int -> items:int -> unit) ref = ref (fun ~jobs:_ ~items:_ -> ())
let set_observer f = observer := f

(* Is the current domain executing a pool chunk right now? The telemetry
   sampler gates on this: sampling only outside chunks means the owner
   never reads shared shard state while workers mutate it, and the sample
   sequence cannot depend on how the work was split. *)
let inside_chunk () = Domain.DLS.get inside

let parallel_for ?jobs:j n f =
  if n > 0 then begin
    let j = match j with Some j -> max 1 j | None -> jobs () in
    let j = min j n in
    let nested = Domain.DLS.get inside in
    if not nested then !observer ~jobs:j ~items:n;
    if nested then sequential_for 0 n f
    else if j <= 1 then begin
      (* A top-level single-job run still marks its body as "in a chunk":
         chunk-gated code (nested-call detection, telemetry sampling) must
         behave identically at every job count, so the flag cannot depend
         on whether the chunk happens to execute on the caller. *)
      Domain.DLS.set inside true;
      Fun.protect
        ~finally:(fun () -> Domain.DLS.set inside false)
        (fun () -> sequential_for 0 n f)
    end
    else begin
      (* Chunk c covers [c*base + min c rem, ...): sizes differ by <= 1. *)
      let base = n / j and rem = n mod j in
      let chunk_lo c = (c * base) + min c rem in
      let run c =
        Domain.DLS.set inside true;
        Fun.protect
          ~finally:(fun () -> Domain.DLS.set inside false)
          (fun () ->
            match sequential_for (chunk_lo c) (chunk_lo (c + 1)) f with
            | () -> None
            | exception e -> Some e)
      in
      let workers = Array.init (j - 1) (fun i -> Domain.spawn (fun () -> run (i + 1))) in
      let first = run 0 in
      let rest = Array.map Domain.join workers in
      (* Re-raise the first failure in chunk order, after every domain has
         been joined. *)
      let exn = Array.fold_left (fun acc e -> match acc with Some _ -> acc | None -> e) first rest in
      match exn with Some e -> raise e | None -> ()
    end
  end

let init ?jobs n f =
  if n <= 0 then [||]
  else begin
    (* Seed the array with f 0 computed on the calling domain, then fill the
       rest in parallel. *)
    let a = Array.make n (f 0) in
    parallel_for ?jobs (n - 1) (fun i -> a.(i + 1) <- f (i + 1));
    a
  end

let map ?jobs f a = init ?jobs (Array.length a) (fun i -> f a.(i))
