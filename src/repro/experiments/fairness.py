"""Fairness at a shared bottleneck: does S-RTO starve native flows?

Sec. 5.2 argues S-RTO's extra retransmissions "do not hurt TCP
fairness as the congestion window still follows AIMD".  This harness
tests that claim directly: two long-running bulk flows — one under the
probed policy, one native — share one bottleneck queue, and we compare
their goodputs.  A fair policy keeps the split near 50/50; a policy
that exploited its probes for bandwidth would not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..netsim.engine import EventLoop
from ..netsim.loss import BernoulliLoss
from ..netsim.topology import SharedBottleneck
from ..packet.headers import ip_from_str
from ..tcp.endpoint import EndpointConfig, TcpEndpoint

SERVER_IP = ip_from_str("10.0.0.1")
CLIENT_NET = ip_from_str("100.64.8.0")


@dataclass
class FairnessResult:
    """Goodput split between a probed flow and a native competitor."""

    policy: str
    policy_bytes: int
    native_bytes: int
    duration: float

    @property
    def policy_share(self) -> float:
        total = self.policy_bytes + self.native_bytes
        if not total:
            return 0.5
        return self.policy_bytes / total

    @property
    def jain_index(self) -> float:
        """Jain's fairness index over the two goodputs (1.0 = fair)."""
        x = [self.policy_bytes, self.native_bytes]
        total = sum(x)
        if not total:
            return 1.0
        return total**2 / (2 * sum(v**2 for v in x))


def run_fairness(
    policy: str = "srto",
    policy_kwargs: dict | None = None,
    duration: float = 30.0,
    rate_bps: float = 8e6,
    loss_rate: float = 0.01,
    seed: int = 2,
) -> FairnessResult:
    """Two greedy senders share one bottleneck for ``duration`` secs;
    the defaults are the paper run's (S-RTO at its own T1/T2)."""
    engine = EventLoop()
    rng = random.Random(seed)
    bottleneck = SharedBottleneck(
        engine,
        delay=0.04,
        rate_bps=rate_bps,
        queue_limit=48,
        data_loss=BernoulliLoss(loss_rate),
        rng=rng,
    )

    flows: list[tuple[TcpEndpoint, TcpEndpoint]] = []
    policies = [(policy, policy_kwargs or {}), ("native", {})]
    for index, (flow_policy, kwargs) in enumerate(policies):
        server_cfg = EndpointConfig(
            ip=SERVER_IP,
            port=8000 + index,
            init_cwnd=10,
            policy=flow_policy,
            policy_kwargs=kwargs,
        )
        client_cfg = EndpointConfig(
            ip=CLIENT_NET + 1 + index, port=41000 + index
        )
        server = TcpEndpoint(engine, server_cfg, rng)
        client = TcpEndpoint(engine, client_cfg, rng)
        server.attach_link(
            bottleneck.register_server(
                (server_cfg.ip, server_cfg.port), server.receive
            )
        )
        client.attach_link(
            bottleneck.register_client(
                (client_cfg.ip, client_cfg.port), client.receive
            )
        )
        server.listen()

        def start_bulk(srv=server):
            # A greedy source: keep ~2 MB buffered at all times.
            def refill():
                if srv.sender is not None and not srv.closed:
                    if srv.sender.unsent_bytes < 1 << 20:
                        srv.sender.write(1 << 21)
                    engine.schedule(0.5, refill)

            refill()

        server.on_established = start_bulk
        flows.append((client, server))

    for client, server in flows:
        client.connect((server.config.ip, server.config.port))

    engine.run(until=duration)
    policy_client, _ = flows[0]
    native_client, _ = flows[1]
    result = FairnessResult(
        policy=policy,
        policy_bytes=(
            policy_client.receiver.total_received
            if policy_client.receiver
            else 0
        ),
        native_bytes=(
            native_client.receiver.total_received
            if native_client.receiver
            else 0
        ),
        duration=duration,
    )
    for client, server in flows:
        client.abort()
        server.abort()
    return result
