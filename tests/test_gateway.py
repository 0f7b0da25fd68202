import pytest

from routesmith.errors import (
    AuthError,
    ExtractionError,
    MalformedResponseError,
    RetryExhaustedError,
)
from routesmith.gateway import (
    ChatRequest,
    Gateway,
    HttpProvider,
    MOCK_CORPUS,
    MockProvider,
    extract_code,
)


class TestExtractCode:
    def test_single_block(self):
        assert extract_code("text\n```cpp\nint x;\n```\nafter") == "int x;"

    def test_last_of_two_blocks(self):
        text = "```python\nfirst\n```\nmiddle\n```\nsecond\n```"
        assert extract_code(text) == "second"

    def test_language_tag_ignored(self):
        assert extract_code("```whatever-lang\ncode here\n```") == "code here"

    def test_prose_only_raises(self):
        with pytest.raises(ExtractionError):
            extract_code("no code at all")
        with pytest.raises(ExtractionError):
            extract_code("")


def _messages(tag="x"):
    return [{"role": "system", "content": "s"}, {"role": "user", "content": f"u-{tag}"}]


class TestMockProvider:
    def test_scripted_reply_verbatim_with_zero_usage(self):
        mock = MockProvider(script=["hello ```python\ncode\n```"])
        out = mock.complete(ChatRequest(messages=_messages()))
        assert out.response == "hello ```python\ncode\n```"
        assert (out.input_tokens, out.output_tokens) == (0, 0)

    def test_script_replays_each_reply_once_to_concurrent_callers(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        script = [f"reply {i}" for i in range(200)]
        gw = Gateway(MockProvider(script=script))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so an unlocked update gets lost
        try:
            with ThreadPoolExecutor(8) as pool:
                calls = [pool.submit(gw.complete, _messages(), nonce=i) for i in range(200)]
                replies = [call.result(timeout=60).response for call in calls]
        finally:
            sys.setswitchinterval(interval)
        assert sorted(replies) == sorted(script)
        assert gw.ledger.calls == 200
        with pytest.raises(MalformedResponseError):
            gw.complete(_messages())

    def test_pure_function_of_digest_nonce_seed(self):
        a = MockProvider(seed=5).complete(ChatRequest(messages=_messages(), nonce=3))
        b = MockProvider(seed=5).complete(ChatRequest(messages=_messages(), nonce=3))
        assert a.response == b.response
        c = MockProvider(seed=6).complete(ChatRequest(messages=_messages(), nonce=3))
        d = MockProvider(seed=5).complete(ChatRequest(messages=_messages("y"), nonce=3))
        # different seed or prompt may select a different corpus entry;
        # at minimum the function is well-defined for each input
        assert isinstance(c.response, str) and isinstance(d.response, str)

    def test_nonces_give_varied_corpus_coverage(self):
        mock = MockProvider(seed=1)
        picks = {
            mock.complete(ChatRequest(messages=_messages(), nonce=i)).response
            for i in range(40)
        }
        assert len(picks) >= min(3, len(MOCK_CORPUS))

    def test_responses_carry_extractable_code(self):
        mock = MockProvider(seed=2)
        for i in range(10):
            out = mock.complete(ChatRequest(messages=_messages(), nonce=i))
            source = extract_code(out.response)
            assert "def select_by_llm_1" in source


class _FakeResp:
    def __init__(self, payload):
        self._payload = payload

    def json(self):
        if isinstance(self._payload, Exception):
            raise self._payload
        return self._payload


class _StubHttp(HttpProvider):
    def __init__(self, outcomes, **kw):
        kw.setdefault("endpoint", "http://test.invalid/v1/chat/completions")
        kw.setdefault("sleep", lambda s: None)
        super().__init__(**kw)
        self.outcomes = list(outcomes)
        self.posts = 0

    def _post(self, payload):
        self.posts += 1
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _ok_payload(content="fine", tokens=(11, 7)):
    return {
        "choices": [{"message": {"content": content}}],
        "usage": {"prompt_tokens": tokens[0], "completion_tokens": tokens[1]},
    }


class TestHttpProvider:
    def test_two_transient_503_then_success(self):
        stub = _StubHttp([(503, _FakeResp({})), (503, _FakeResp({})), (200, _FakeResp(_ok_payload()))])
        out = stub.complete(ChatRequest(messages=_messages()))
        assert out.response == "fine"
        assert out.retry_count == 2
        assert (out.input_tokens, out.output_tokens) == (11, 7)

    def test_auth_failure_is_terminal(self):
        stub = _StubHttp([(401, _FakeResp({}))])
        with pytest.raises(AuthError):
            stub.complete(ChatRequest(messages=_messages()))
        assert stub.posts == 1

    def test_malformed_response_raises(self):
        stub = _StubHttp([(200, _FakeResp({"nope": 1}))])
        with pytest.raises(MalformedResponseError):
            stub.complete(ChatRequest(messages=_messages()))

    def test_retry_exhaustion(self):
        stub = _StubHttp([(503, _FakeResp({}))] * 10, max_retries=3)
        with pytest.raises(RetryExhaustedError):
            stub.complete(ChatRequest(messages=_messages()))
        assert stub.posts == 4  # initial try + 3 retries

    def test_transport_errors_retried(self):
        import requests

        stub = _StubHttp(
            [requests.ConnectionError("boom"), (200, _FakeResp(_ok_payload("ok")))]
        )
        out = stub.complete(ChatRequest(messages=_messages()))
        assert out.response == "ok"
        assert out.retry_count == 1


class TestGatewayLedger:
    def test_cumulative_usage_is_additive(self):
        stub = _StubHttp([(200, _FakeResp(_ok_payload(tokens=(10, 5))))] * 3)
        gw = Gateway(stub, input_cost_per_mtok=2.0, output_cost_per_mtok=4.0)
        for i in range(3):
            gw.complete(_messages(), nonce=i)
        assert gw.ledger.calls == 3
        assert gw.ledger.input_tokens == 30
        assert gw.ledger.output_tokens == 15
        assert gw.ledger.cost == pytest.approx((30 * 2.0 + 15 * 4.0) / 1e6)
        report = gw.ledger.to_dict()
        assert report["calls"] == 3 and report["cost"] == pytest.approx(gw.ledger.cost)

    def test_mock_runs_report_zero_cost(self):
        gw = Gateway(MockProvider(seed=0))
        gw.complete(_messages())
        assert gw.ledger.to_dict()["cost"] == 0.0
