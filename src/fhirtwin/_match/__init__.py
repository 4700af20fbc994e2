"""The dictionary matcher kernel; see ``pymatch``."""
