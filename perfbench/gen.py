"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its arguments; callers pass a
``random.Random`` built from the benchmark seed, so one seed always gives
the same inputs.
"""

from __future__ import annotations

_DISTAUTH_HEAD = '''/* Authentication fan-out: the identity provider informs the client and
 * {services} relying services of one decision and hands all of them the token. */

enum AuthBranch@R {{ OK, KO }}

class AuthToken@R {{
    private String@R value;
    public AuthToken(String@R value) {{
        this.value = value;
    }}
    public String@R value() {{
        return this.value;
    }}
    public static AuthToken@R create() {{
        return new AuthToken@R("token-001"@R);
    }}
}}

class ClientRegistry@R {{
    public static String@R getSalt(String@R username) {{
        return "NaCl-"@R.concat(username);
    }}
    public static Boolean@R check(String@R hash) {{
        return hash.equals("NaCl-alice#pwd123"@R);
    }}
}}

'''

_DISTAUTH_LOGIN = '''    private static String@Client calcHash(String@Client salt, String@Client pwd) {
        return salt.concat("#"@Client).concat(pwd);
    }

    public void login(String@Client username, String@Client password) {
        String@Client salt = username
            >> ch_Client_IP::<String>com >> ClientRegistry@IP::getSalt >> ch_Client_IP::<String>com;
        Boolean@IP valid = calcHash(salt, password)
            >> ch_Client_IP::<String>com >> ClientRegistry@IP::check;
        if (valid) {
'''

VALID_PASSWORD = "pwd123"


def distauth_roles(n):
    """Client, the n - 2 relying services S1.., and the identity provider IP."""
    return ["Client"] + [f"S{i}" for i in range(1, n - 1)] + ["IP"]


def distauth_source(n):
    """The ``DistAuth<n>`` program with n roles, in the shape of DistAuth10."""
    if n < 2:
        raise ValueError("DistAuthN needs at least the client and the provider")
    clients = distauth_roles(n)[:-1]
    name = f"DistAuth{n}"
    roles = ", ".join(distauth_roles(n))
    params = ", ".join(f"SymChannel@({r}, IP)<Object> ch_{r}_IP" for r in clients)
    out = [_DISTAUTH_HEAD.format(services=n - 2), f"public class {name}@({roles}) {{\n"]
    out += [f"    private SymChannel@({r}, IP)<Object> ch_{r}_IP;\n" for r in clients]
    out.append(f"\n    public {name}({params}) {{\n")
    out += [f"        this.ch_{r}_IP = ch_{r}_IP;\n" for r in clients]
    out.append("    }\n\n")
    out.append(_DISTAUTH_LOGIN)
    out += [f"            ch_{r}_IP.<AuthBranch>select(AuthBranch@IP.OK);\n" for r in clients]
    out.append("            AuthToken@IP t = AuthToken@IP.create();\n")
    out += [f'            System@{r}.out.println("token "@{r}.concat(ch_{r}_IP.<AuthToken>com(t).value()));\n'
            for r in clients]
    out.append("        } else {\n")
    out += [f"            ch_{r}_IP.<AuthBranch>select(AuthBranch@IP.KO);\n" for r in clients]
    out += [f'            System@{r}.out.println("denied"@{r});\n' for r in clients]
    out.append("        }\n    }\n}\n")
    return "".join(out)


def distauth_run(n, valid):
    """Entry, arguments and channel wiring of one DistAuthN login."""
    return {
        "entry_class": f"DistAuth{n}",
        "entry_method": "login",
        "args": {"Client": ["alice", VALID_PASSWORD if valid else "wrong"]},
        "channels": {f"ch_{r}_IP": f"distauth{n}_{i}"
                     for i, r in enumerate(distauth_roles(n)[:-1])},
    }


def distauth_transcripts(n, valid):
    """What every non-provider role prints: the token, or the denial."""
    line = "token token-001" if valid else "denied"
    return {r: [line] for r in distauth_roles(n)[:-1]}


def grid_sizes(k, lo, hi):
    """The midpoints of k equal log-width strata of [lo, hi]."""
    return [round(lo * (hi / lo) ** ((i + 0.5) / k)) for i in range(k)]


def stratified_sizes(rng, k, lo, hi):
    """k sizes, one drawn log-uniformly from each of k equal log-width strata
    of [lo, hi], so that every draw covers the whole range evenly."""
    return [round(lo * (hi / lo) ** ((i + rng.random()) / k)) for i in range(k)]


def stream_items(rng, n):
    """n distinct item strings for ConsumeItems."""
    base = rng.randrange(10 ** 6)
    return [f"item-{base}-{i}" for i in range(n)]


def sort_input(rng, n):
    """n integers from [-n, n], so that some repeat."""
    return [rng.randint(-n, n) for _ in range(n)]
