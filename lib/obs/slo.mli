(** SLO burn-rate monitor for the serving path.

    Observations (latency, delivered?) are grouped into rolling windows
    of a fixed count; each window is evaluated over a
    {!Histogram} latency histogram against latency-quantile
    objectives ([p99<=2us]) and delivery-rate objectives
    ([delivery>=0.999]), with the error-budget burn rate per window:
    fraction of the budget the window actually consumed, where burn = 1
    means "spent exactly the budget" and > 1 means burning too fast.

    Feed from one domain only (the serving orchestrator, between
    batches, in qid order): windows are sequential state, and the single
    feeder plus integer-ratio arithmetic is what makes the verdict JSON
    byte-identical at every [RON_JOBS] under the deterministic logical
    clock. *)

type objective =
  | Latency of { q : float; label : string; limit : float }
      (** [p_q <= limit], [limit] in clock units (ns under the wall
          clock, cost units under the logical clock). *)
  | Delivery of { min_rate : float }  (** delivered fraction >= rate *)

val parse : string -> (objective list, string) result
(** Parse a spec like ["p99<=2us,delivery>=0.999"]. Latency terms are
    [pNN<=LIMIT] with an optional [ns]/[us]/[ms]/[s] suffix (unitless
    means raw clock units); delivery terms are [delivery>=RATE] with the
    rate in (0, 1). Comma-separated; spaces around terms are ignored. *)

val describe : objective list -> string
(** Canonical spec string (limits in base units). *)

val describe_objective : objective -> string

type t

val create : ?window:int -> ?name:string -> objective list -> t
(** [create objectives] — a monitor closing a window every [window]
    (default 2000) observations. The window latency histogram registers
    as ["<name>.window_latency"] (default name ["slo"]) so telemetry
    sees it live; it is reset here and at every window close. Raises
    [Invalid_argument] on [window < 1] or an empty objective list. *)

val window : t -> int
val spec : t -> string
val objectives : t -> objective list

val observe : t -> lat:int -> ok:bool -> unit
(** One served query: its latency in clock units and whether it counts
    as delivered. Closes (and evaluates) the window when it fills;
    allocates nothing otherwise. Single-domain caller only. *)

val finish : t -> unit
(** Close the trailing partial window, if any observations are
    pending. *)

(** Evaluation of one objective over one window. *)
type window_result = {
  value : float;  (** measured quantile (latency) or rate (delivery) *)
  burn : float;  (** error-budget burn rate; clamped at 1e9 *)
  violated : bool;  (** the measured value itself crossed the limit *)
}

type window_summary = {
  w_index : int;
  w_count : int;
  w_ok : int;
  w_results : window_result array;  (** same order as [objectives] *)
}

val windows : t -> window_summary list
(** Closed windows, oldest first. *)

val windows_closed : t -> int
val violated_windows : t -> int

val max_burn : t -> float
(** Worst per-window burn rate seen so far (0 before any close). *)

val ok : t -> bool
(** No window violated any objective. *)

val to_json : ?flight:Json.t -> t -> Json.t
(** Machine-readable verdict, schema [ron-slo/1]: spec, objectives,
    every closed window with per-objective value/burn/violated, totals,
    and the overall [ok] bit. [?flight] (a {!Flight.to_json} dump)
    attaches the slow-query exemplars so [ron_obs report] can attribute
    them to violating windows. *)
