(** Rendering helpers for the paper's tables and figures in a terminal. *)

val ascii_boxplot :
  labels_and_boxes:(string * Dsim.Stats.boxplot) list ->
  ?width:int ->
  ?log_scale:bool ->
  unit ->
  string
(** Horizontal box plots sharing one axis, like Figs. 4-6. [log_scale]
    is needed for Fig. 6, where the contended box dwarfs the rest. *)

val table :
  header:string list -> rows:string list list -> string
(** Monospace table with column sizing. *)

val mbit : float -> string
val pct : float -> string

val metrics_digest : unit -> string
(** Table of every cvm-labelled series in {!Dsim.Metrics.default},
    grouped by compartment. Zero-valued series other than
    [trampoline_crossings_total] are elided. *)
