(** Every row family [main.exe] emits, in the order it emits them. A run
    whose rows name a family missing here, or miss one named here, fails
    its gate; [check_committed.exe] fails when the committed
    BENCH_refresh.json has no row of one. *)

let all =
  [ "projection"; "filter"; "sum_count_group"; "min_max_group"; "global_agg";
    "join_agg"; "cascade_2level"; "cascade_3level"; "cascade_dup_churn";
    "cascade_dup_churn_noconsol"; "recovery"; "multi_session_churn";
    "multi_session_churn_eager"; "bulk_update"; "scaling"; "art_build";
    "upsert_index"; "htap_fresh_answer"; "refresh_granularity"; "compile" ]
