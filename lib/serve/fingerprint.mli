(** Canonical cache keys for served compression results.

    [of_icm icm ~config] hashes a canonical serialization of the full
    ICM (every field, in order — CNOT order matters, so reordered
    non-commuting gates fingerprint differently) together with
    {!Tqec_compress.Knobs.key}, the printed form of every
    result-affecting knob in [config].  Knobs that cannot change the
    result bytes — [jobs], [corridor_cache], and the [debug] and
    [verify] switches — are not in the key, so requests differing only
    there share a cache entry. *)

val of_icm : Tqec_icm.Icm.t -> config:Tqec_compress.Pipeline.config -> string
