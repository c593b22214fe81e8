(** Lowering from the {NOT, CNOT, Toffoli} basis to Clifford+T.

    Each Toffoli expands to the textbook 7-T / 6-CNOT / 2-H network
    (Nielsen & Chuang Fig. 4.9), which is the decomposition behind the
    paper's benchmark statistics: every Toffoli contributes exactly seven
    T-count (hence 7 |A> states, cf. Table 1 where #|A> is always a
    multiple of 7). *)

(** [lower c] maps a {NOT, CNOT, Toffoli} circuit (Clifford+T gates pass
    through) to Clifford+T.
    @raise Invalid_argument if [c] still contains MCT/SWAP/Fredkin gates
    (run {!Mct.lower} first). *)
val lower : Circuit.t -> Circuit.t

(** [decompose c] is [lower (Mct.lower c)] — the full preprocess entry
    point used by the pipeline. *)
val decompose : Circuit.t -> Circuit.t
