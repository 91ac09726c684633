(** Seeded random-module generator over the front-end dialect tower.

    Every emitted module is verifier-valid {e by construction} — ops are
    built through the typed dialect constructors, so shapes, dtypes and
    region structure always agree — and executable by the host
    interpreter (the grammar sticks to the op subset every backend can
    at least CPU-fall-back on). Generation is a pure function of the
    seed: one sequential SplitMix64 stream, no global state, so the
    printed text is byte-identical across runs, platforms and [--jobs]
    settings. *)

open Cinm_ir
open Cinm_interp

(** Generate the module for [seed]. [ops] scales the body length
    (default: 3–12 random ops; the shrink demo passes a large count).
    [updates] (default [false]) lets loops also update their carried
    tensor with [tensor.insert]/[tensor.insert_slice], reading it before
    and sometimes after the update; the fuzz campaign turns it on
    ({!Campaign.module_of_seed}). Without it a seed generates the module
    it always has, which keeps pinned module pools stable. *)
val generate : ?ops:int -> ?updates:bool -> seed:int -> unit -> Func.modul

(** Deterministic argument values for a generated (or reduced) function,
    synthesized from its signature and the seed — data patterns include
    negatives and i8/i16-boundary magnitudes so wrap semantics are
    exercised. *)
val arg_values : seed:int -> Func.t -> Rtval.t list

(** The op names the grammar can emit (distribution-sanity tests). *)
val grammar : string list
