(** The fuzz campaign loop: generate → oracle matrix → auto-shrink →
    reproducer + triage record.

    On a mismatch the PR-5 reducer runs with a backend-differential
    interestingness predicate (the failing oracle axis must keep
    failing), the shrunk module lands in the corpus directory as
    [fuzz-seed<N>-<axis>.mlir] — created O_EXCL so concurrent campaigns
    sharing a corpus never clobber each other — and one line is appended
    to [triage.log]. *)

open Cinm_ir

type shrink_record = {
  seed : int;
  axis : string;
  detail : string;
  ops_before : int;
  ops_after : int;
  repro_path : string option;  (** None: no corpus dir, or write failed *)
}

type summary = {
  seeds_run : int;
  mismatch_seeds : int;  (** seeds with >= 1 surviving mismatch *)
  shrinks : shrink_record list;
}

(** Shrink one mismatching module and record it. *)
val shrink_and_record :
  ?inject:bool ->
  ?jobs_alt:int ->
  ?max_rounds:int ->
  corpus_dir:string option ->
  seed:int ->
  axis:string ->
  detail:string ->
  Func.modul ->
  shrink_record

(** The module the campaign generates for a seed: the full grammar,
    including loops that update their carried tensor. *)
val module_of_seed : int -> Cinm_ir.Func.modul

(** The header line ([// grammar: updates]) that marks a corpus file as
    holding [module_of_seed]'s text; [cinm_fuzz --dump-seed] prints it
    first. *)
val grammar_header : string

(** The module a corpus file's seed regenerates: [module_of_seed] when
    [text] carries [grammar_header], otherwise the default grammar's
    [Gen.generate ~seed ()] (the fixtures recorded before loops could
    update their carried tensor). *)
val fixture_module_of_seed : text:string -> int -> Cinm_ir.Func.modul

(** Run seeds [first .. last-1] through the full matrix. [progress] is
    called after every seed with (seed, mismatches so far). *)
val run_range :
  ?inject:bool ->
  ?jobs_alt:int ->
  ?corpus_dir:string option ->
  ?progress:(int -> int -> unit) ->
  first:int ->
  last:int ->
  unit ->
  summary

(** The seed recorded in a corpus file's [// fuzz-seed: N] header. *)
val fuzz_seed_of_text : string -> int option
