"""Bad fixture: overload responses that drop the retry contract."""


class Handler:
    async def throttled(self):
        return 429, {"error": "quota"}, False

    def batch_item(self):
        return {"status": "error", "code": 504, "error": "deadline"}
