"""The HTTP gateway serving the web interface over the network."""

import pytest

from repro.net import Network
from repro.server import HttpGateway, WebView, http_get


@pytest.fixture
def gateway_rig(engine):
    engine.enroll_user("alice")
    engine.register_software(
        "s1", "kazaa.exe", 1000, vendor="Sharman Networks", version="2.6"
    )
    engine.cast_vote("alice", "s1", 3)
    engine.reconcile_scores()
    network = Network()
    gateway = HttpGateway(WebView(engine))
    network.register("www", gateway.handle)
    return network, gateway


def _get(rig, target):
    network, __ = rig
    return http_get(network, "browser", "www", target)


class TestRouting:
    def test_software_page(self, gateway_rig):
        status, body = _get(gateway_rig, "/software/s1")
        assert status == 200
        assert "kazaa.exe" in body

    def test_vendor_page_with_encoded_space(self, gateway_rig):
        status, body = _get(gateway_rig, "/vendor/Sharman%20Networks")
        assert status == 200
        assert "Sharman Networks" in body

    def test_search(self, gateway_rig):
        status, body = _get(gateway_rig, "/search?q=kazaa")
        assert status == 200
        assert "kazaa.exe" in body

    def test_search_requires_query(self, gateway_rig):
        status, __ = _get(gateway_rig, "/search")
        assert status == 400

    def test_rankings(self, gateway_rig):
        status, body = _get(gateway_rig, "/rankings")
        assert status == 200
        assert "Lowest rated" in body

    def test_stats(self, gateway_rig):
        status, body = _get(gateway_rig, "/stats")
        assert status == 200
        assert "registered software" in body

    def test_unknown_path_404(self, gateway_rig):
        status, __ = _get(gateway_rig, "/admin/secret")
        assert status == 404
        status, __ = _get(gateway_rig, "/software/")
        assert status == 404

    def test_unknown_software_is_a_page_not_an_error(self, gateway_rig):
        status, body = _get(gateway_rig, "/software/ffff")
        assert status == 200
        assert "No software" in body


class TestProtocolEdges:
    def test_post_rejected(self, gateway_rig):
        network, __ = gateway_rig
        raw = network.request(
            "browser", "www", b"POST /stats HTTP/1.0\r\n\r\n"
        )
        assert b"405" in raw.split(b"\r\n", 1)[0]

    def test_garbage_request_line(self, gateway_rig):
        network, __ = gateway_rig
        raw = network.request("browser", "www", b"\xff\xfe\x00")
        assert b"400" in raw.split(b"\r\n", 1)[0]

    def test_missing_target(self, gateway_rig):
        network, __ = gateway_rig
        raw = network.request("browser", "www", b"GET\r\n\r\n")
        assert b"400" in raw.split(b"\r\n", 1)[0]

    def test_content_length_matches_body(self, gateway_rig):
        network, __ = gateway_rig
        raw = network.request("browser", "www", b"GET /stats HTTP/1.0\r\n\r\n")
        head, __sep, body = raw.partition(b"\r\n\r\n")
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"content-length:"):
                assert int(line.split(b":")[1]) == len(body)
                break
        else:
            pytest.fail("no Content-Length header")

    def test_request_counter(self, gateway_rig):
        network, gateway = gateway_rig
        http_get(network, "browser", "www", "/stats")
        http_get(network, "browser", "www", "/rankings")
        assert gateway.requests_served == 2
