import json
import random

from flagtrace.diffengine import GROUP, DEFINE, diff, render_report
from delta_oracle import apply_deltas, swapped
from tests.test_ingest import log_snapshot


def two_snapshots(tmp_path, text_a, text_b):
    return (log_snapshot(tmp_path, text_a, "a", "dev"),
            log_snapshot(tmp_path, text_b, "b", "dev"))


class TestDiff:
    def test_identity(self, tmp_path):
        a, b = two_snapshots(tmp_path,
                             "gcc -O2 -c x.c -o x.o\ngcc x.o -o app\n",
                             "gcc -O2 -c x.c -o x.o\ngcc x.o -o app\n")
        assert diff(a, b).is_empty()

    def test_ids_and_timestamps_ignored(self, tmp_path):
        a = log_snapshot(tmp_path, "gcc -c x.c\n", "one", "dev", "2026-01-01T00:00:00Z")
        b = log_snapshot(tmp_path, "gcc -c x.c\n", "two", "rel", "2026-02-01T00:00:00Z")
        assert diff(a, b).is_empty()

    def test_dropped_hardening_flag(self, tmp_path):
        a, b = two_snapshots(tmp_path,
                             "gcc -fstack-protector -c tu1.c -o tu1.o\n",
                             "gcc -c tu1.c -o tu1.o\n")
        report = diff(a, b)
        (src, deltas), = report.per_tu_changes.items()
        assert src.endswith("tu1.c")
        # set-difference oracle over serialized group lines
        delta = [d for d in deltas if d.scope == GROUP and d.name == "stack_protector"]
        assert len(delta) == 1
        assert delta[0].before["spelling"] == "-fstack-protector"
        assert delta[0].after is None

    def test_debug_define_added_to_release_tu(self, tmp_path):
        a, b = two_snapshots(tmp_path,
                             "gcc -O2 -c core.c -o core.o\ngcc -O2 -c util.c -o util.o\n",
                             "gcc -O2 -DDEBUG_TRACING -c core.c -o core.o\n"
                             "gcc -O2 -c util.c -o util.o\n")
        report = diff(a, b)
        assert len(report.per_tu_changes) == 1
        (src, deltas), = report.per_tu_changes.items()
        assert src.endswith("core.c")
        assert [d.scope for d in deltas] == [DEFINE]
        assert deltas[0].name == "DEBUG_TRACING"

    def test_added_removed_tus(self, tmp_path):
        a, b = two_snapshots(tmp_path, "gcc -c old.c\n", "gcc -c new.c\n")
        report = diff(a, b)
        assert [p.endswith("old.c") for p in report.removed_tus] == [True]
        assert [p.endswith("new.c") for p in report.added_tus] == [True]

    def test_link_order_delta(self, tmp_path):
        a, b = two_snapshots(
            tmp_path,
            "gcc -c a.c -o a.o\ngcc -c b.c -o b.o\ngcc a.o b.o -o app\n",
            "gcc -c a.c -o a.o\ngcc -c b.c -o b.o\ngcc b.o a.o -o app\n")
        report = diff(a, b)
        (out, deltas), = report.per_target_changes.items()
        assert out.endswith("app")
        assert any(d.scope == "link_order" for d in deltas)


def random_log(rng):
    flags = ["-O0", "-O2", "-O3", "-g", "-fno-exceptions", "-fstack-protector",
             "-DA=1", "-DB", "-UA", "-Iinc", "-Wall", "-Wno-shadow", "-fPIC"]
    lines = []
    objs = []
    for i in range(rng.randint(1, 5)):
        chosen = " ".join(rng.choice(flags) for _ in range(rng.randint(0, 5)))
        lines.append(f"gcc {chosen} -c f{i}.c -o f{i}.o")
        objs.append(f"f{i}.o")
    rng.shuffle(objs)
    lines.append("gcc " + " ".join(objs) + " -o app -lm")
    return "\n".join(lines) + "\n"


class TestDiffProperties:
    def test_randomized_identity_antisymmetry_composability(self, tmp_path):
        rng = random.Random(42)
        for i in range(40):
            a = log_snapshot(tmp_path, random_log(rng), f"pa{i}", "dev")
            b = log_snapshot(tmp_path, random_log(rng), f"pb{i}", "dev")
            assert diff(a, a).is_empty()
            assert diff(b, b).is_empty()
            fwd, rev = diff(a, b), diff(b, a)
            assert sorted(fwd.added_tus) == sorted(rev.removed_tus)
            assert sorted(fwd.removed_tus) == sorted(rev.added_tus)
            for src, deltas in fwd.per_tu_changes.items():
                reversed_deltas = [swapped(d) for d in deltas]
                assert {(d.scope, d.name) for d in reversed_deltas} == \
                    {(d.scope, d.name) for d in rev.per_tu_changes[src]}
            # composability: forward deltas take a's effective sets to b's
            tus_a, tus_b = a.by_subject("tu"), b.by_subject("tu")
            for src in set(tus_a) & set(tus_b):
                rebuilt = apply_deltas(tus_a[src].effective,
                                       fwd.per_tu_changes.get(src, []))
                assert rebuilt == tus_b[src].effective, src


class TestRender:
    def test_empty_text(self, tmp_path):
        a, b = two_snapshots(tmp_path, "gcc -c x.c\n", "gcc -c x.c\n")
        assert render_report(diff(a, b), "text") == b"no differences\n"

    def test_empty_json_canonical(self, tmp_path):
        a, b = two_snapshots(tmp_path, "gcc -c x.c\n", "gcc -c x.c\n")
        doc = json.loads(render_report(diff(a, b), "json"))
        assert doc["report_version"] == 1
        assert doc["summary"]["changed_tus"] == 0

    def test_one_delta_one_stanza(self, tmp_path):
        a, b = two_snapshots(tmp_path, "gcc -O2 -c x.c\n", "gcc -O0 -c x.c\n")
        text = render_report(diff(a, b), "text").decode()
        assert text.count("opt_level") == 1
        json_bytes = render_report(diff(a, b), "json")
        assert json_bytes == render_report(diff(a, b), "json")  # deterministic
