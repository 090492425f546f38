"""Frozen constants asserted by the verification suite.

The estimates behind them carry unspecified absolute constants, so every
bound here is pinned by a one-time calibration run (fixed seeds, default
RunConfig: box 40, window [-8, 8], dt 1/4, k in 0..3; see calibration.py,
``python -m conewave.calibration``) and then asserted as-is.  The measured
value from that run is recorded next to each frozen bound.
"""

# wave construction floors
KAPPA_CUBE = 0.25        # min |bump| on its unit cube; measured 0.3057
KAPPA_TUBE = 0.5         # packet cross-section mass in radius 1; measured 0.8587
C_LOC = 2.0              # ball radius holding >= 50% of a packet's slice mass

# field-size ceilings
C_BERNSTEIN = 0.12       # sup |phi|, 100 random mass-1 red waves; measured 0.0914
C_STAR = 0.16            # bilinear ratio ceiling, random suite; measured 0.1002

# sharpness experiment (measured rho in [0.4854, 0.5055], lp_scaled 0.6196)
RHO_MIN = 0.25
RHO_SPREAD_MAX = 3.0
C_LP_SCALED = 0.80

# covering lemma
K_COV = 64.0             # exceptional tube count <= K_COV * delta^-3
S_MIN = 0.5              # separation predicate floor

# blue exceptional tubes (adversarial k=0 run emits 260 at delta=0.2)
K_EXC = 64.0             # tube count <= K_EXC * delta^-K_E
K_E = 3.0

# ray extraction (delta=0.2 train run: min decrement 0.0411 vs floor 0.0124,
# max extractor mass 1.26, off-tube ratio 0.387)
C_DEC = 0.5              # per-step mass drop >= C_DEC * delta^2 / ln(1/delta)
K_F = 1.5                # extractor mass <= K_F * ln(1/delta)
EPS_OFF = 0.55           # extractor tube-norm ratio off its dilated tube
LAMBDA_CAP = 6.0         # dilation cap for recorded tubes (delta^-C exceeds the torus)

# profile theorem (max outside 0.0326 = 0.163*delta; adversarial full 0.4075)
C_V = 0.25               # outside-ratio <= C_V * delta in verify_profile
ADVERSARIAL_MARGIN = 5.0 # packet pairs must exceed ADVERSARIAL_MARGIN * C_V * delta
K_U = 2.0                # universal tube count <= K_U * delta^-K_P; measured 23
K_P = 3.0

# fungibility (int g = 8.26, 64 intervals at delta = 0.2)
C_F = 1.0                # per-interval ratio <= C_F * delta
K_I = 2.0                # interval count <= K_I * delta^-K_P
K_G = 2.0                # integral of the tube sup profile <= K_G * delta^-K_P
