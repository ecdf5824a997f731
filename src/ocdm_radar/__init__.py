"""Fresnel-domain channel estimation for OCDM radar, MIMO radar, and RadCom."""

__version__ = "0.1.0"
