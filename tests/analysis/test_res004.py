"""RES004: NetworkError-family escapes must be handled along the unwind."""


class TestPositive:
    def test_bare_helper_chain_to_transfer_fires(self, reported):
        findings = reported(
            "RES004",
            """\
            def fetch_block(net, src, dst):
                return net.transfer(src, dst, 4096)

            def pull(net, src, dst):
                return fetch_block(net, src, dst)
            """,
        )
        assert findings
        assert any("escape" in f.message for f in findings)

    def test_witness_trace_reaches_the_primitive(self, reported):
        findings = reported(
            "RES004",
            """\
            def fetch_block(net, src, dst):
                return net.transfer(src, dst, 4096)

            def pull(net, src, dst):
                return fetch_block(net, src, dst)
            """,
        )
        trace = findings[0].trace
        assert trace
        assert any("can raise" in note for _, _, note in trace)

    def test_covered_helper_called_bare_elsewhere_fires(self, reported):
        # The helper is wrapped at one site (covered there), but the bare
        # call site lets the family unwind to an entry point.
        findings = reported(
            "RES004",
            """\
            def fetch_block(net, src, dst):
                return net.transfer(src, dst, 4096)

            def careful(context, net, src, dst):
                def attempt():
                    return fetch_block(net, src, dst)

                return context.call_resilient('p', attempt)

            def careless(net, src, dst):
                return fetch_block(net, src, dst)
            """,
        )
        assert findings
        assert all(f.line >= 10 for f in findings)  # only the bare path

    def test_try_else_branch_is_not_guarded_by_the_handlers(self, reported):
        # ``else:`` runs after the body completed, outside the handlers.
        findings = reported(
            "RES004",
            """\
            from repro.errors import NetworkError

            def prepare():
                return 1

            def fetch_block(net, src, dst):
                return net.transfer(src, dst, 4096)

            def pull(net, src, dst):
                try:
                    prepare()
                except NetworkError:
                    return None
                else:
                    return fetch_block(net, src, dst)
            """,
        )
        assert [f.line for f in findings] == [15]

    def test_class_body_inside_a_function_is_scanned(self, reported):
        # A class body runs at definition time, in the enclosing function.
        findings = reported(
            "RES004",
            """\
            def fetch_block(net, src, dst):
                return net.transfer(src, dst, 4096)

            def pull(net, src, dst):
                class Holder:
                    value = fetch_block(net, src, dst)

                return Holder
            """,
        )
        assert [f.line for f in findings] == [6]

    def test_subclass_handler_does_not_catch_the_family(self, reported):
        # ``except RpcTimeoutError`` lets a plain NetworkError through.
        findings = reported(
            "RES004",
            """\
            from repro.errors import RpcTimeoutError

            def fetch_block(net, src, dst):
                return net.transfer(src, dst, 4096)

            def pull(net, src, dst):
                try:
                    return fetch_block(net, src, dst)
                except RpcTimeoutError:
                    return None
            """,
        )
        assert [f.line for f in findings] == [8]


class TestNegative:
    def test_family_handler_on_the_path_is_quiet(self, reported):
        assert not reported(
            "RES004",
            """\
            from repro.errors import NetworkError

            def fetch_block(net, src, dst):
                return net.transfer(src, dst, 4096)

            def pull(net, src, dst):
                try:
                    return fetch_block(net, src, dst)
                except NetworkError:
                    return None
            """,
        )

    def test_wrapped_entry_is_quiet(self, reported):
        assert not reported(
            "RES004",
            """\
            def fetch_block(net, src, dst):
                return net.transfer(src, dst, 4096)

            def pull(context, net, src, dst):
                def attempt():
                    return fetch_block(net, src, dst)

                return context.call_resilient('p', attempt)
            """,
        )

    def test_direct_cross_peer_site_is_res001_territory(self, reported):
        # A *direct* unprotected transfer is RES001's finding; RES004 only
        # flags indirect propagation through helper layers.
        assert not reported(
            "RES004",
            """\
            def ship(net, src, dst):
                return net.transfer(src, dst, 64)
            """,
        )

    def test_sim_unit_is_exempt(self, reported):
        assert not reported(
            "RES004",
            """\
            def fetch(net, src, dst):
                return net.transfer(src, dst, 1)

            def pull(net, src, dst):
                return fetch(net, src, dst)
            """,
            path="src/repro/sim/network.py",
        )
