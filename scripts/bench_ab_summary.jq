# Summary of an A/B run (scripts/bench_ab.sh): reads every
# <side>-<pair>/set-*.json given as input, keeps the metrics BENCHMARK.json
# gates, and prints per workload and metric the quartiles and median of
# each side, the change of the median, and the pairs each side won (ties
# count for neither).
def quantile(p): sort as $s | ((($s | length) - 1) * p) as $i
  | ($i | floor) as $lo | ($i | ceil) as $hi
  | $s[$lo] + ($s[$hi] - $s[$lo]) * ($i - $lo);
def fmt: . * 10000 | round / 10000 | tostring;
($manifest[0].end_to_end | map({key: .name, value: .better}) | from_entries) as $better
| [inputs
   | (input_filename | capture("/(?<side>[ab])-(?<pair>[0-9]+)/[^/]*$")) as $f
   | .results[] | .workload as $w | .end_to_end | to_entries[]
   | select($better[.key] != null)
   | {side: $f.side, pair: ($f.pair | tonumber), w: $w, m: .key, v: .value.value}]
| (["workload", "metric", "a_q1", "a_median", "a_q3", "b_q1", "b_median", "b_q3", "median_change", "b_wins", "a_wins", "pairs"] | @tsv),
  (group_by([.w, .m])[]
   | .[0].w as $w | .[0].m as $m
   | (map(select(.side == "a")) | sort_by(.pair)) as $a
   | (map(select(.side == "b")) | sort_by(.pair)) as $b
   | ($a | map(.v)) as $av | ($b | map(.v)) as $bv
   | [range(0; [($a | length), ($b | length)] | min)
      | ($bv[.] - $av[.]) * (if $better[$m] == "lower" then -1 else 1 end)] as $gain
   | [$w, $m,
      ($av | quantile(0.25) | fmt), ($av | quantile(0.5) | fmt), ($av | quantile(0.75) | fmt),
      ($bv | quantile(0.25) | fmt), ($bv | quantile(0.5) | fmt), ($bv | quantile(0.75) | fmt),
      (if ($av | quantile(0.5)) == 0 then "n/a"
       else ((($bv | quantile(0.5)) / ($av | quantile(0.5)) - 1) * 1000 | round / 10 | tostring) + "%" end),
      ($gain | map(select(. > 0)) | length), ($gain | map(select(. < 0)) | length), ($gain | length)]
   | @tsv)
